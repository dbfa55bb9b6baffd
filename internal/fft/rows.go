package fft

// Row execution of a group of lines: the one power-of-two engine.
//
// A group of w lines of one layout is n rows of w lanes: element i of line l
// is data[i*pitch+l*lane]. Adjacent strided lines (the column pass of a plane,
// the axis-0 and axis-1 passes of a pencil) are (pitch = stride, lane = 1);
// contiguous lines (the unit-stride pencil axis, the row pass of a plane) are
// (pitch = 1, lane = dist); a line on its own — an odd one left over, a line
// of a layout whose lines do not nest, a single contiguous line — is a group
// of two lanes at lane 0, both the same line, which read the same elements
// and store the same bits to the same addresses. The butterflies run across
// the rows — every lane of a row is the same element index of a line, so it
// meets the same twiddle — and nothing is transposed. The first,
// twiddle-free stage reads the caller's rows through the bit-reversal table
// and writes the packed tile row after row; the middle passes run in place in
// the tile; the final pass reads the tile and stores into the caller's lanes
// with the inverse scaling fused. The array is read once and written once.
//
// Per element the arithmetic is the same whatever the group — a line carries
// the same bits in a pair, alone or at any (pitch, lane). The three Go loops
// below are the reference; on amd64 CPUs with AVX2 the routines of
// radix4_amd64.s run instead, four lanes per register where the CPU has
// AVX-512F and a row holds four, else two. They read the same tables and
// issue the same multiplies, adds and subtracts in the same association — no
// fused multiply-add, whose single rounding would change the bits. The loops
// run as written on every other GOARCH, without AVX2 and in race builds.

// transformRows transforms w lines of a power-of-two plan of at least 8
// points from src to dst: element i of line l is read at src[i*spitch+l*slane]
// and stored at dst[i*dpitch+l*dlane]. A batch passes its array as both, at
// the same rows and lanes; a real batch passes the tile as dst, at (w, 1), or
// as src (real.go); a Bluestein group passes its convolution buffer as both.
// w is even, at least 2, w·n elements fit in tile, and both sides are nested
// (rowsNested) — or, for a line on its own, w is 2 and both lanes are 0.
func (p *Plan) transformRows(dst []complex128, dpitch, dlane int, src []complex128, spitch, slane int, tile []complex128, w int, dir Direction, scale float64) {
	tile = tile[:p.n*w]
	firstRows(tile, src, w, spitch, slane, p, dir == Forward)
	passes := p.tw4[dir]
	s := p.firstTabS
	last := len(passes) - 1
	for i, tw := range passes {
		if i < last {
			rows4(tile, w, 1, tile, w, s, tw, 1, false)
		} else {
			rows4(dst, dpitch, dlane, tile, w, s, tw, scale, scale != 1)
		}
		s *= 4
	}
}

// rowsNested reports whether n rows of w lanes at (pitch, lane) are nested one
// way or the other: a row of w lanes fits in the pitch, or a whole line of n
// rows fits in the lane. Then no two rows share an element, and two lanes of a
// row coincide only at lane 0, where every lane of a row is one element — a
// line on its own, whose lanes store the same bits. The products cannot wrap
// once the rows and lanes are known to lie inside an array.
func rowsNested(n, w, pitch, lane int) bool {
	return pitch >= w*lane || lane >= n*pitch
}

// firstRows and rows4 are what transformRows calls for a stage: the vector
// routine where the machine has one (useAVX2; the wrappers pick the AVX-512
// form where useAVX512 and w >= 4), else the matching Go loop below. All
// produce the same bits.
func firstRows(tile, data []complex128, w, pitch, lane int, p *Plan, fwd bool) {
	switch {
	case useAVX2 && p.preRadix2:
		pairsRowsVec(tile, data, w, pitch, lane, p)
	case useAVX2:
		quadsRowsVec(tile, data, w, pitch, lane, p, fwd)
	case p.preRadix2:
		pairsRows(tile, data, w, pitch, lane, p.rev)
	default:
		quadsRows(tile, data, w, pitch, lane, p.rev, fwd)
	}
}

func rows4(dst []complex128, dpitch, dlane int, src []complex128, w, s int, tw []twiddle3, scale float64, scaled bool) {
	if useAVX2 {
		radix4RowsVec(dst, dpitch, dlane, src, w, s, tw, scale, scaled)
		return
	}
	radix4Rows(dst, dpitch, dlane, src, w, s, tw, scale, scaled)
}

// pairsRows is the radix-2 fix-up stage of an odd log2(n), fused with the
// bit-reversal gather: tile rows i and i+1 receive the sum and the difference
// of data rows rev[i] and rev[i+1], w lanes each.
func pairsRows(tile, data []complex128, w, pitch, lane int, rev []int32) {
	m := (w-1)*lane + 1 // the extent of a row's lanes
	for i := 0; i+1 < len(rev); i += 2 {
		ra := data[int(rev[i])*pitch:][:m]
		rb := data[int(rev[i+1])*pitch:][:m]
		t0 := tile[i*w:][:w]
		t1 := tile[(i+1)*w:][:w]
		for l, k := 0, 0; l < w; l, k = l+1, k+lane {
			a, b := ra[k], rb[k]
			t0[l] = a + b
			t1[l] = a - b
		}
	}
}

// quadsRows is the first radix-4 stage, fused with the bit-reversal gather:
// four tile rows receive the 4-point DFTs (twiddles 1 and ∓i only) of data
// rows rev[i] … rev[i+3].
func quadsRows(tile, data []complex128, w, pitch, lane int, rev []int32, fwd bool) {
	m := (w-1)*lane + 1
	for i := 0; i+3 < len(rev); i += 4 {
		ra := data[int(rev[i])*pitch:][:m]
		rb := data[int(rev[i+1])*pitch:][:m]
		rc := data[int(rev[i+2])*pitch:][:m]
		rd := data[int(rev[i+3])*pitch:][:m]
		t0 := tile[i*w:][:w]
		t1 := tile[(i+1)*w:][:w]
		t2 := tile[(i+2)*w:][:w]
		t3 := tile[(i+3)*w:][:w]
		for l, k := 0, 0; l < w; l, k = l+1, k+lane {
			a, b, c, d := ra[k], rb[k], rc[k], rd[k]
			e0, e1 := a+b, a-b
			f0 := c + d
			cd := c - d
			f1 := complex(imag(cd), -real(cd)) // (c-d)·(-i)
			if !fwd {
				f1 = complex(-imag(cd), real(cd)) // (c-d)·(+i)
			}
			t0[l] = e0 + f0
			t1[l] = e1 + f1
			t2[l] = e0 - f0
			t3[l] = e1 - f1
		}
	}
}

// radix4Rows is the twiddled radix-4 pass across rows: it merges quarter-blocks
// of s rows into blocks of 4s rows, reading rows of w packed lanes at pitch w
// from src and storing them at (dpitch, dlane) to dst — the tile itself at
// (w, 1) for an in-place pass, the caller's lanes for the final one — with the
// outputs multiplied by complex(scale, 0) when scaled. Row j of a quarter-block
// uses tw[j] in every lane.
func radix4Rows(dst []complex128, dpitch, dlane int, src []complex128, w, s int, tw []twiddle3, scale float64, scaled bool) {
	n := len(src) / w
	m := (w-1)*dlane + 1 // the extent of a row's lanes
	cs := complex(scale, 0)
	tw = tw[:s]
	for base := 0; base < n; base += 4 * s {
		for j := 0; j < s; j++ {
			t := &tw[j]
			r := base + j
			s0 := src[r*w:][:w]
			s1 := src[(r+s)*w:][:w]
			s2 := src[(r+2*s)*w:][:w]
			s3 := src[(r+3*s)*w:][:w]
			d0 := dst[r*dpitch:][:m]
			d1 := dst[(r+s)*dpitch:][:m]
			d2 := dst[(r+2*s)*dpitch:][:m]
			d3 := dst[(r+3*s)*dpitch:][:m]
			for l, k := 0, 0; l < w; l, k = l+1, k+dlane {
				a := s0[l]
				b := s1[l] * t.t1
				c := s2[l]
				d := s3[l] * t.t1
				e0 := a + b
				e1 := a - b
				f0 := (c + d) * t.t2
				f1 := (c - d) * t.t3
				if scaled {
					d0[k] = (e0 + f0) * cs
					d1[k] = (e1 + f1) * cs
					d2[k] = (e0 - f0) * cs
					d3[k] = (e1 - f1) * cs
				} else {
					d0[k] = e0 + f0
					d1[k] = e1 + f1
					d2[k] = e0 - f0
					d3[k] = e1 - f1
				}
			}
		}
	}
}
