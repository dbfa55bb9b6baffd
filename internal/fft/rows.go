package fft

// Row execution of adjacent strided lines.
//
// When the lines of a strided batch sit one element apart (the column pass of
// a plane, the axis-0 and axis-1 passes of a pencil), w adjacent lines are n
// contiguous rows of w elements: element i of line l is data[i*pitch+l]. The
// butterflies of the power-of-two kernel then run across rows — every lane of
// a row is the same element index of a different line, so it meets the same
// twiddle — and nothing is transposed. The first, twiddle-free stage reads the
// caller's rows through the bit-reversal table and writes the tile row after
// row; the middle passes run in place in the tile; the final pass reads the
// tile and stores into the caller's array with the inverse scaling fused. The
// array is read once and written once.
//
// Per element the arithmetic is that of kernelPow2Buf — gatherPairs or
// gatherQuads, then radix4Pass, then radix4PassTo — only the loop nest
// differs, so a line transformed here, through the generic tile of blocked.go
// or alone carries the same bits. The three Go loops below are the reference;
// on amd64 CPUs with AVX2 the routines of radix4_amd64.s run instead, under the
// rules stated in kernel.go (same operations, same association, no FMA).

// transformRows transforms w adjacent lines of a power-of-two plan above the
// codelet sizes: line l has element i at data[i*pitch+l]. w is even, at least
// 2, and w·n elements fit in tile.
func (p *Plan) transformRows(data, tile []complex128, w, pitch int, dir Direction, scale float64) {
	tile = tile[:p.n*w]
	firstRows(tile, data, w, pitch, p.rev, p.preRadix2, dir == Forward)
	passes := p.tw4[dir]
	s := p.firstTabS
	last := len(passes) - 1
	for i, tw := range passes {
		if i < last {
			rows4(tile, w, tile, w, s, tw, 1, false)
		} else {
			rows4(data, pitch, tile, w, s, tw, scale, scale != 1)
		}
		s *= 4
	}
}

// firstRows and rows4 are what transformRows calls for a stage: the vector
// routine where the machine has one (useAVX2), else the matching Go loop
// below. Both produce the same bits.
func firstRows(tile, data []complex128, w, pitch int, rev []int32, pairs, fwd bool) {
	switch {
	case useAVX2 && pairs:
		pairsRowsVec(tile, data, w, pitch, rev)
	case useAVX2:
		quadsRowsVec(tile, data, w, pitch, rev, fwd)
	case pairs:
		pairsRows(tile, data, w, pitch, rev)
	default:
		quadsRows(tile, data, w, pitch, rev, fwd)
	}
}

func rows4(dst []complex128, dpitch int, src []complex128, w, s int, tw []twiddle3, scale float64, scaled bool) {
	if useAVX2 {
		radix4RowsVec(dst, dpitch, src, w, s, tw, scale, scaled)
		return
	}
	radix4Rows(dst, dpitch, src, w, s, tw, scale, scaled)
}

// pairsRows is gatherPairs across rows: tile rows i and i+1 receive the sum
// and the difference of data rows rev[i] and rev[i+1], w lanes each.
func pairsRows(tile, data []complex128, w, pitch int, rev []int32) {
	for i := 0; i+1 < len(rev); i += 2 {
		ra := data[int(rev[i])*pitch:][:w]
		rb := data[int(rev[i+1])*pitch:][:w]
		t0 := tile[i*w:][:w]
		t1 := tile[(i+1)*w:][:w]
		for l := 0; l < w; l++ {
			a, b := ra[l], rb[l]
			t0[l] = a + b
			t1[l] = a - b
		}
	}
}

// quadsRows is gatherQuads across rows: four tile rows receive the 4-point
// DFTs (twiddles 1 and ∓i only) of data rows rev[i] … rev[i+3].
func quadsRows(tile, data []complex128, w, pitch int, rev []int32, fwd bool) {
	for i := 0; i+3 < len(rev); i += 4 {
		ra := data[int(rev[i])*pitch:][:w]
		rb := data[int(rev[i+1])*pitch:][:w]
		rc := data[int(rev[i+2])*pitch:][:w]
		rd := data[int(rev[i+3])*pitch:][:w]
		t0 := tile[i*w:][:w]
		t1 := tile[(i+1)*w:][:w]
		t2 := tile[(i+2)*w:][:w]
		t3 := tile[(i+3)*w:][:w]
		for l := 0; l < w; l++ {
			a, b, c, d := ra[l], rb[l], rc[l], rd[l]
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
// of s rows into blocks of 4s rows, reading rows of w lanes at pitch w from src
// and storing them at pitch dpitch to dst — the same array and pitch for an
// in-place pass, the caller's array for the final one — with the outputs
// multiplied by complex(scale, 0) when scaled. Row j of a quarter-block uses
// tw[j] in every lane.
func radix4Rows(dst []complex128, dpitch int, src []complex128, w, s int, tw []twiddle3, scale float64, scaled bool) {
	n := len(src) / w
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
			d0 := dst[r*dpitch:][:w]
			d1 := dst[(r+s)*dpitch:][:w]
			d2 := dst[(r+2*s)*dpitch:][:w]
			d3 := dst[(r+3*s)*dpitch:][:w]
			for l := 0; l < w; l++ {
				a := s0[l]
				b := s1[l] * t.t1
				c := s2[l]
				d := s3[l] * t.t1
				e0 := a + b
				e1 := a - b
				f0 := (c + d) * t.t2
				f1 := (c - d) * t.t3
				if scaled {
					d0[l] = (e0 + f0) * cs
					d1[l] = (e1 + f1) * cs
					d2[l] = (e0 - f0) * cs
					d3[l] = (e1 - f1) * cs
				} else {
					d0[l] = e0 + f0
					d1[l] = e1 + f1
					d2[l] = e0 - f0
					d3[l] = e1 - f1
				}
			}
		}
	}
}
