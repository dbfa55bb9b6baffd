package mpisim

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/tensor"
)

// Subarray is the simulator's MPI_Type_create_subarray: it describes a
// (generally non-contiguous) box-shaped region of a local array laid out for
// a containing box. Algorithm 2 of the paper (Dalcin et al.) passes such
// datatypes to MPI_Alltoallw so the library strides through memory directly,
// eliminating the explicit pack/unpack kernels of Algorithm 1.
type Subarray struct {
	Full tensor.Box3 // layout box of the local array
	Sub  tensor.Box3 // region to transfer (must lie inside Full)
}

// Elems reports the number of elements the datatype covers.
func (s Subarray) Elems() int { return s.Sub.Volume() }

// validate checks the datatype against an array length (0 = phantom).
func (s Subarray) validate(arrayLen int) error {
	if !s.Full.ContainsBox(s.Sub) {
		return fmt.Errorf("mpisim: subarray %v not inside %v", s.Sub, s.Full)
	}
	if arrayLen != 0 && arrayLen != s.Full.Volume() {
		return fmt.Errorf("mpisim: array length %d != full box volume %d", arrayLen, s.Full.Volume())
	}
	return nil
}

// AlltoallwSub is the generalized all-to-all over subarray datatypes: rank r
// sends the region sendTypes[d] of its local array to each rank d, receiving
// into the region recvTypes[s] of recvArray. Passing a nil local/recvArray
// runs in phantom mode (sizes only). The transport is the naive
// Isend/Irecv-per-pair Alltoallw model (high per-message setup; never
// GPU-aware on SpectrumMPI-like machines), while the strided memory
// traversal itself is free on the device — exactly the trade Algorithm 2
// makes.
func (c *Comm) AlltoallwSub(local []complex128, sendTypes []Subarray,
	recvArray []complex128, recvTypes []Subarray, loc machine.Location) error {
	size := c.Size()
	if len(sendTypes) != size || len(recvTypes) != size {
		return fmt.Errorf("mpisim: AlltoallwSub needs %d datatypes, got %d/%d", size, len(sendTypes), len(recvTypes))
	}
	for _, st := range sendTypes {
		if err := st.validate(len(local)); err != nil {
			return err
		}
	}
	for _, rt := range recvTypes {
		if err := rt.validate(len(recvArray)); err != nil {
			return err
		}
	}

	// Gather each destination's region. The datatype engine walks the
	// strides on the host; no GPU pack kernels are charged (Algorithm 2's
	// advantage), the cost lives in the per-message AlltoallwOverhead.
	var send []Block
	for d, st := range sendTypes {
		n := st.Elems()
		if n == 0 {
			continue
		}
		if local == nil {
			send = append(send, Block{Peer: d, Buf: Buf{N: n, Loc: loc}})
			continue
		}
		data := make([]complex128, n)
		tensor.Pack(local, st.Full, st.Sub, data)
		send = append(send, Block{Peer: d, Buf: Buf{Data: data, Loc: loc}})
	}
	recv := c.AlltoallwSparse(send, nil, loc)
	if recvArray == nil {
		return nil
	}
	for s, rt := range recvTypes {
		if rt.Elems() == 0 {
			continue
		}
		for len(recv) > 0 && recv[0].Peer < s {
			recv = recv[1:]
		}
		var got Buf
		if len(recv) > 0 && recv[0].Peer == s {
			got = recv[0].Buf
		}
		if got.Elems() != rt.Elems() {
			return fmt.Errorf("mpisim: AlltoallwSub rank %d sent %d elems, datatype expects %d",
				s, got.Elems(), rt.Elems())
		}
		tensor.Unpack(recvArray, rt.Full, rt.Sub, got.Data)
	}
	return nil
}
