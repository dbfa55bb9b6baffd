package mpisim

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/trace"
)

// Golden fingerprints of the public all-to-all collectives: every rank's clock
// after each call, every received element (math.Float64bits) and the trace
// events each call records, folded into one FNV-64a value per row. The table
// was generated on the tree that still had three rendezvous leaders
// (alltoall, schedExchange, Ialltoallv); the single engine must reproduce
// every row bit for bit. A row moves only in a Class B commit, whose message
// lists every regenerated row before → after.

type fpHash struct{ h hash.Hash64 }

func newFPHash() fpHash { return fpHash{fnv.New64a()} }

func (f fpHash) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	f.h.Write(b[:])
}

func (f fpHash) f64(v float64) { f.u64(math.Float64bits(v)) }

func (f fpHash) bufs(recv []Buf) {
	for _, b := range recv {
		f.u64(uint64(b.Elems()))
		for _, v := range b.Data {
			f.f64(real(v))
			f.f64(imag(v))
		}
		for _, v := range b.Real {
			f.f64(v)
		}
	}
}

// fpSend builds rank r's non-uniform send vector: block sizes vary per pair
// and roughly one in five is empty.
func fpSend(r, size int, loc machine.Location, phantom bool) []Buf {
	rng := rand.New(rand.NewSource(int64(7919*r + 13)))
	send := make([]Buf, size)
	for d := range send {
		n := 0
		if rng.Intn(5) != 0 {
			n = 64 + rng.Intn(4096)
		}
		if phantom {
			send[d] = Buf{N: n, PhantomReal: d%2 == 1, Loc: loc}
			continue
		}
		data := make([]complex128, n)
		for i := range data {
			data[i] = complex(rng.NormFloat64(), float64(1000*r+d))
		}
		send[d] = Buf{Data: data, Loc: loc}
	}
	return send
}

// fpOps are the call sequences a row drives on every rank; each returns the
// buffers it received (concatenated across calls).
var fpOps = []struct {
	name string
	run  func(c *Comm, send func() []Buf) []Buf
}{
	{"alltoall", func(c *Comm, send func() []Buf) []Buf { return alltoallDense(c, send()) }},
	{"alltoallv", func(c *Comm, send func() []Buf) []Buf { return alltoallvDense(c, send()) }},
	{"alltoallw", func(c *Comm, send func() []Buf) []Buf { return alltoallwDense(c, send()) }},
	{"ialltoallv", func(c *Comm, send func() []Buf) []Buf {
		req := c.Ialltoallv(send())
		c.Advance(3e-5)
		return c.WaitColl(req)
	}},
	{"pair/ialltoallv", func(c *Comm, send func() []Buf) []Buf {
		a, b := c.Ialltoallv(send()), c.Ialltoallv(send())
		c.Advance(1e-5)
		return append(c.WaitColl(a), c.WaitColl(b)...)
	}},
	{"mixed", func(c *Comm, send func() []Buf) []Buf {
		out := c.AlltoallvWith(send(), AlgoRing)
		out = append(out, alltoallvDense(c, send())...)
		req := ialltoallvDense(c, send(), AlgoLinear)
		out = append(out, c.AlltoallvWith(send(), AlgoPairwise)...)
		return append(out, c.WaitColl(req)...)
	}},
	{"split/alltoallv", func(c *Comm, send func() []Buf) []Buf {
		g := c.Split(c.Rank()%2, c.Rank())
		s := send()
		sub := make([]Buf, 0, g.Size())
		for d := c.Rank() % 2; d < len(s); d += 2 {
			sub = append(sub, s[d])
		}
		out := g.AlltoallvWith(sub, AlgoNodeAware)
		return append(out, alltoallvDense(g, sub)...)
	}},
}

func init() {
	for _, a := range Algos() {
		a := a
		fpOps = append(fpOps,
			struct {
				name string
				run  func(c *Comm, send func() []Buf) []Buf
			}{"with/" + a.String(), func(c *Comm, send func() []Buf) []Buf { return c.AlltoallvWith(send(), a) }},
			struct {
				name string
				run  func(c *Comm, send func() []Buf) []Buf
			}{"iwith/" + a.String(), func(c *Comm, send func() []Buf) []Buf {
				req := ialltoallvDense(c, send(), a)
				c.Advance(3e-5)
				return c.WaitColl(req)
			}},
			struct {
				name string
				run  func(c *Comm, send func() []Buf) []Buf
			}{"pair/iwith/" + a.String(), func(c *Comm, send func() []Buf) []Buf {
				x, y := ialltoallvDense(c, send(), a), ialltoallvDense(c, send(), a)
				c.Advance(1e-5)
				return append(c.WaitColl(x), c.WaitColl(y)...)
			}},
		)
	}
}

// fpWorlds are the world variants every op runs under.
var fpWorlds = []struct {
	name    string
	opts    func() Options
	loc     machine.Location
	phantom bool
}{
	{"aware", func() Options { return Options{GPUAware: true} }, machine.Device, false},
	{"staged", func() Options { return Options{} }, machine.Device, false},
	{"host", func() Options { return Options{GPUAware: true} }, machine.Host, false},
	{"phantom-staged", func() Options { return Options{} }, machine.Device, true},
	{"checksums", func() Options {
		return Options{GPUAware: true, Integrity: IntegrityConfig{Checksums: true}}
	}, machine.Device, false},
	{"degrade", func() Options {
		return Options{GPUAware: true, Faults: &faults.Plan{Events: []faults.Event{
			{Kind: faults.Degrade, Rank: 3, Op: 0, Factor: 2.5, Count: 2},
			{Kind: faults.Stall, Rank: 7, Op: 1, Delay: 2e-5}}}}
	}, machine.Device, false},
	{"degrade-staged", func() Options {
		return Options{Faults: &faults.Plan{Events: []faults.Event{
			{Kind: faults.Degrade, Rank: 5, Op: 0, Factor: 4, Count: 3}}}}
	}, machine.Device, false},
	{"flip-retransmit", func() Options {
		return Options{GPUAware: true, Integrity: IntegrityConfig{Checksums: true},
			Faults: &faults.Plan{Events: []faults.Event{{Kind: faults.CorruptSilent, Rank: 2, Op: 0, Count: 1}}}}
	}, machine.Device, false},
	{"flip-silent", func() Options {
		return Options{GPUAware: true,
			Faults: &faults.Plan{Events: []faults.Event{{Kind: faults.CorruptSilent, Rank: 4, Op: 0, Count: 1}}}}
	}, machine.Device, false},
}

// fpWant is the golden table.
var fpWant = map[string]uint64{
	"aware/alltoall":                        0xdf87ff93e2590bcb,
	"aware/alltoallv":                       0xb2b338fcde8e88fc,
	"aware/alltoallw":                       0x3042354016490ce1,
	"aware/ialltoallv":                      0xad903ec67af66642,
	"aware/pair/ialltoallv":                 0x2110d30974c06576,
	"aware/mixed":                           0x071c7f74f654ca15,
	"aware/split/alltoallv":                 0x4068b20cd81e15ab,
	"aware/with/linear":                     0xb2b338fcde8e88fc,
	"aware/iwith/linear":                    0x4643914fdbbae00e,
	"aware/pair/iwith/linear":               0x5670458d7d65d858,
	"aware/with/pairwise":                   0x51cc0fe820e64ce6,
	"aware/iwith/pairwise":                  0x49fa768180ca4010,
	"aware/pair/iwith/pairwise":             0x53f12cf1e9aeda00,
	"aware/with/ring":                       0x9efdfb809245d805,
	"aware/iwith/ring":                      0x08863067e8354090,
	"aware/pair/iwith/ring":                 0xf38ca499b1acce2d,
	"aware/with/bruck":                      0x6520059b3c8195e7,
	"aware/iwith/bruck":                     0x2e6da0ba7bd81a9d,
	"aware/pair/iwith/bruck":                0xbb2b7d3d4a7597fb,
	"aware/with/node-aware":                 0x6827bd0baa9d8c53,
	"aware/iwith/node-aware":                0x8cdb8a49d1d64d51,
	"aware/pair/iwith/node-aware":           0x7948e7440f39c572,
	"staged/alltoall":                       0x5c5aace3bded6830,
	"staged/alltoallv":                      0x75d8c96734d3b230,
	"staged/alltoallw":                      0x3042354016490ce1,
	"staged/ialltoallv":                     0x6865da0948087114,
	"staged/pair/ialltoallv":                0x81a7501829dcf069,
	"staged/mixed":                          0xfda5511ac2b55d41,
	"staged/split/alltoallv":                0x9c7884446f11bb53,
	"staged/with/linear":                    0x75d8c96734d3b230,
	"staged/iwith/linear":                   0x492ea87991df2996,
	"staged/pair/iwith/linear":              0x8bc516265a628ed9,
	"staged/with/pairwise":                  0xb6ef7e5ec724cf32,
	"staged/iwith/pairwise":                 0xdeef295f60cf3788,
	"staged/pair/iwith/pairwise":            0xb4c8a65817c92f79,
	"staged/with/ring":                      0xf76d7c74809fbead,
	"staged/iwith/ring":                     0x541f59135b8dfedb,
	"staged/pair/iwith/ring":                0xaebe4960434dd274,
	"staged/with/bruck":                     0x8bb61fac9355d807,
	"staged/iwith/bruck":                    0xb07ea8ad496b3251,
	"staged/pair/iwith/bruck":               0x590cc9344240e98a,
	"staged/with/node-aware":                0xb2c385ee1d7b3c72,
	"staged/iwith/node-aware":               0xbd663287e8044c40,
	"staged/pair/iwith/node-aware":          0x07ee011a7815994a,
	"host/alltoall":                         0xcfa35dcbbccf8023,
	"host/alltoallv":                        0xaaed6f6c50ad6e32,
	"host/alltoallw":                        0xaf2b944da5338fc0,
	"host/ialltoallv":                       0x294da75f5c1362f0,
	"host/pair/ialltoallv":                  0x5b93c6d07e04e337,
	"host/mixed":                            0x76cc1fe576a1b96c,
	"host/split/alltoallv":                  0x71190e2a24196b69,
	"host/with/linear":                      0xaaed6f6c50ad6e32,
	"host/iwith/linear":                     0x97b08cb6a998cd64,
	"host/pair/iwith/linear":                0x6fc6251891a283c1,
	"host/with/pairwise":                    0x80036dfbde3fa9d7,
	"host/iwith/pairwise":                   0xa0dc9b587cee9e45,
	"host/pair/iwith/pairwise":              0xb9773b891fe616af,
	"host/with/ring":                        0x9e1ac23e7722f258,
	"host/iwith/ring":                       0xdc8fc824c2d32892,
	"host/pair/iwith/ring":                  0x660c489bd72b0321,
	"host/with/bruck":                       0x43784dbc393db777,
	"host/iwith/bruck":                      0x152dcdbfb0c31fe9,
	"host/pair/iwith/bruck":                 0x96c6a16e2846bdd8,
	"host/with/node-aware":                  0x260a089020941653,
	"host/iwith/node-aware":                 0xb1ec004634e96539,
	"host/pair/iwith/node-aware":            0x6551a0595be8df66,
	"phantom-staged/alltoall":               0xbfadc50aed588b0e,
	"phantom-staged/alltoallv":              0xc3f13af9bca353ba,
	"phantom-staged/alltoallw":              0x6ae0233e7945e274,
	"phantom-staged/ialltoallv":             0x8fc025303e6a2547,
	"phantom-staged/pair/ialltoallv":        0x4aabce0a3046363e,
	"phantom-staged/mixed":                  0x803543500247c6a2,
	"phantom-staged/split/alltoallv":        0x1346f1bd77dcb984,
	"phantom-staged/with/linear":            0xc3f13af9bca353ba,
	"phantom-staged/iwith/linear":           0x838e03a4fd5f6717,
	"phantom-staged/pair/iwith/linear":      0x93c148e434e53bdc,
	"phantom-staged/with/pairwise":          0x47c07c6af4762ef1,
	"phantom-staged/iwith/pairwise":         0xf32056759d2a3e5c,
	"phantom-staged/pair/iwith/pairwise":    0x8545c5f40d720a74,
	"phantom-staged/with/ring":              0xd173b8b253ed15cd,
	"phantom-staged/iwith/ring":             0x8b01683d664eb06c,
	"phantom-staged/pair/iwith/ring":        0x57acca1a23b7316f,
	"phantom-staged/with/bruck":             0xf5ba96331bf4762b,
	"phantom-staged/iwith/bruck":            0x7bc0fa661a41cd26,
	"phantom-staged/pair/iwith/bruck":       0xd2de00dabd80d955,
	"phantom-staged/with/node-aware":        0xb95306f1162d90b7,
	"phantom-staged/iwith/node-aware":       0xc1b04fcc3e3ae58e,
	"phantom-staged/pair/iwith/node-aware":  0x59117d1851f123fa,
	"checksums/alltoall":                    0x6ac51076cb89319a,
	"checksums/alltoallv":                   0xd322c66c9f9b75a0,
	"checksums/alltoallw":                   0x4117362c94aea211,
	"checksums/ialltoallv":                  0x4dd1cf7974643906,
	"checksums/pair/ialltoallv":             0xd610a8492ac22074,
	"checksums/mixed":                       0x3f221d1a306c18d3,
	"checksums/split/alltoallv":             0x77b29f2101cb0dad,
	"checksums/with/linear":                 0xd322c66c9f9b75a0,
	"checksums/iwith/linear":                0x24ee0e79bc431c26,
	"checksums/pair/iwith/linear":           0xb0a2bae1b9e26810,
	"checksums/with/pairwise":               0xb3d896bef16cc01a,
	"checksums/iwith/pairwise":              0x3c625b6f09199d68,
	"checksums/pair/iwith/pairwise":         0xb264010f77d312f2,
	"checksums/with/ring":                   0x82e65442e47f28b9,
	"checksums/iwith/ring":                  0xac507b98d9f52bed,
	"checksums/pair/iwith/ring":             0x71e0a48060dd44cc,
	"checksums/with/bruck":                  0x8885eef40f080d7b,
	"checksums/iwith/bruck":                 0x2a32798fca17b65d,
	"checksums/pair/iwith/bruck":            0xab48cb7bce482a87,
	"checksums/with/node-aware":             0xf50ec10b62f05caa,
	"checksums/iwith/node-aware":            0xd1574bb048577ea8,
	"checksums/pair/iwith/node-aware":       0x9a1293da878e2ccc,
	"degrade/alltoall":                      0x1e0fc9bc85b6b64a,
	"degrade/alltoallv":                     0x918fea14772378ab,
	"degrade/alltoallw":                     0x12a7ac24c3a658eb,
	"degrade/ialltoallv":                    0xa3e41dbba65f3f3d,
	"degrade/pair/ialltoallv":               0x7947d18c9db03e49,
	"degrade/mixed":                         0x90083587b3ef758a,
	"degrade/split/alltoallv":               0x7b1ba09353b3674c,
	"degrade/with/linear":                   0x918fea14772378ab,
	"degrade/iwith/linear":                  0xc0fb9663c6d54cf1,
	"degrade/pair/iwith/linear":             0x0226f04f4f4e4897,
	"degrade/with/pairwise":                 0xeeadc17df0043b80,
	"degrade/iwith/pairwise":                0x3d7576b80d1c922e,
	"degrade/pair/iwith/pairwise":           0x57b8f31ce38c2551,
	"degrade/with/ring":                     0xb2c5d3294cfb7cdc,
	"degrade/iwith/ring":                    0x1003dd045f0782d6,
	"degrade/pair/iwith/ring":               0xcac42803184b6c3c,
	"degrade/with/bruck":                    0xb0093f39eba63c4c,
	"degrade/iwith/bruck":                   0xda5526b88c226c26,
	"degrade/pair/iwith/bruck":              0x957f948d6ad15c74,
	"degrade/with/node-aware":               0xf0ad14a62941fc1f,
	"degrade/iwith/node-aware":              0x03e6e29b5391ca11,
	"degrade/pair/iwith/node-aware":         0x8f18e545a12ebb27,
	"degrade-staged/alltoall":               0x309b34d35ab1abdf,
	"degrade-staged/alltoallv":              0x4978df217d7b8dbd,
	"degrade-staged/alltoallw":              0xd4c24756c7dc4b92,
	"degrade-staged/ialltoallv":             0xe05465e7be9033e5,
	"degrade-staged/pair/ialltoallv":        0x17fefcea464d76b7,
	"degrade-staged/mixed":                  0xd23f9c26873d5da8,
	"degrade-staged/split/alltoallv":        0xce9ab67ce46ca4bf,
	"degrade-staged/with/linear":            0x4978df217d7b8dbd,
	"degrade-staged/iwith/linear":           0x3e42597f9ae32563,
	"degrade-staged/pair/iwith/linear":      0x4763bb171ea52d93,
	"degrade-staged/with/pairwise":          0x81de80490d4d0dd4,
	"degrade-staged/iwith/pairwise":         0x74b140fb83cdb1f6,
	"degrade-staged/pair/iwith/pairwise":    0xbbd59b1ab95a20ea,
	"degrade-staged/with/ring":              0xe981d5f4b3028981,
	"degrade-staged/iwith/ring":             0x9ce65cdd9752d347,
	"degrade-staged/pair/iwith/ring":        0x9804af4e5744e5f7,
	"degrade-staged/with/bruck":             0x41e5a367a2258903,
	"degrade-staged/iwith/bruck":            0x2d00b9b1fcb55359,
	"degrade-staged/pair/iwith/bruck":       0x20244c71cfc9bc3c,
	"degrade-staged/with/node-aware":        0xc37fefebc2ac79c2,
	"degrade-staged/iwith/node-aware":       0x6e7926582d420c18,
	"degrade-staged/pair/iwith/node-aware":  0xf7a53eee1525f300,
	"flip-retransmit/alltoall":              0x7fe60eb3cc83efc6,
	"flip-retransmit/alltoallv":             0x58b48e9fb24e7142,
	"flip-retransmit/alltoallw":             0x188631b286445cfa,
	"flip-retransmit/ialltoallv":            0x1924d4ea04292a24,
	"flip-retransmit/pair/ialltoallv":       0x20c28a478060e895,
	"flip-retransmit/mixed":                 0xb74cf10df8f4b64f,
	"flip-retransmit/split/alltoallv":       0xf818e7afa8f821f3,
	"flip-retransmit/with/linear":           0x58b48e9fb24e7142,
	"flip-retransmit/iwith/linear":          0x0991a625aa1e2158,
	"flip-retransmit/pair/iwith/linear":     0x16ed708a1bba7dad,
	"flip-retransmit/with/pairwise":         0xb61df5785ec0205a,
	"flip-retransmit/iwith/pairwise":        0xd63358d7b460bddc,
	"flip-retransmit/pair/iwith/pairwise":   0xe3950bab13ab1bf7,
	"flip-retransmit/with/ring":             0x8220467bffa4594c,
	"flip-retransmit/iwith/ring":            0xab4d764d6ac34854,
	"flip-retransmit/pair/iwith/ring":       0xf9c3fc8fcf229e21,
	"flip-retransmit/with/bruck":            0x5d0ce451df8ecb21,
	"flip-retransmit/iwith/bruck":           0x56576b263c2b1afb,
	"flip-retransmit/pair/iwith/bruck":      0x7d574af0008eed9a,
	"flip-retransmit/with/node-aware":       0x79bb33af8b42ff68,
	"flip-retransmit/iwith/node-aware":      0xe753cabbeb385796,
	"flip-retransmit/pair/iwith/node-aware": 0x436d1deaecb1a0b5,
	"flip-silent/alltoall":                  0xe362df586d71de58,
	"flip-silent/alltoallv":                 0xe220bde083dd03fe,
	"flip-silent/alltoallw":                 0xe4f8d07058800267,
	"flip-silent/ialltoallv":                0xf4405b8fa08feec4,
	"flip-silent/pair/ialltoallv":           0x300e77ab01921cc6,
	"flip-silent/mixed":                     0x7b85a294344fb5b2,
	"flip-silent/split/alltoallv":           0xa80356970bcb589b,
	"flip-silent/with/linear":               0xe220bde083dd03fe,
	"flip-silent/iwith/linear":              0x8ca77e4ef60ba1d0,
	"flip-silent/pair/iwith/linear":         0xcc42013fc7b36ee8,
	"flip-silent/with/pairwise":             0xf84fd73d53767dd2,
	"flip-silent/iwith/pairwise":            0x83c1a99b90bbb1e4,
	"flip-silent/pair/iwith/pairwise":       0x225c3400f055042b,
	"flip-silent/with/ring":                 0x2fb4f93298a817f0,
	"flip-silent/iwith/ring":                0x7e0856855bbdc664,
	"flip-silent/pair/iwith/ring":           0x842cef33dec14bbf,
	"flip-silent/with/bruck":                0x025ac7ab9717465b,
	"flip-silent/iwith/bruck":               0xb8fd398a027ce4e9,
	"flip-silent/pair/iwith/bruck":          0x275a2fc087fd99d8,
	"flip-silent/with/node-aware":           0x8d6104261d536e26,
	"flip-silent/iwith/node-aware":          0xf218793e5855b7e0,
	"flip-silent/pair/iwith/node-aware":     0xd211435c6fc67630,
}

func TestGoldenCollectiveFingerprints(t *testing.T) {
	const size = 12 // two Summit nodes
	for _, wv := range fpWorlds {
		for _, op := range fpOps {
			wv, op := wv, op
			name := wv.name + "/" + op.name
			t.Run(name, func(t *testing.T) {
				opts := wv.opts()
				opts.Tracer = trace.New()
				w := NewWorld(machine.Summit(), size, opts)
				outs := make([]fpHash, size)
				res := w.Run(func(c *Comm) {
					h := newFPHash()
					outs[c.Rank()] = h
					recv := op.run(c, func() []Buf { return fpSend(c.Rank(), size, wv.loc, wv.phantom) })
					h.f64(c.Clock())
					h.bufs(recv)
				})
				if res.Err != nil {
					t.Fatalf("world failed: %v", res.Err)
				}
				all := newFPHash()
				for r, h := range outs {
					all.u64(h.h.Sum64())
					all.f64(res.Clocks[r])
				}
				for _, e := range opts.Tracer.Events() {
					all.h.Write([]byte(e.Name))
					all.u64(uint64(e.Rank))
					all.f64(e.Start)
					all.f64(e.End)
					all.u64(uint64(e.Bytes))
				}
				if got, want := all.h.Sum64(), fpWant[name]; got != want {
					t.Errorf("fingerprint %q: 0x%016x, want 0x%016x", name, got, want)
				}
			})
		}
	}
}
