package dma8237

import "repro/internal/snap"

// snapName identifies this simulator's blobs (distinct from the "dma8237"
// driver-state blobs the Devil stub produces).
const snapName = "dma8237-sim"

// Reset returns the controller to its power-on state: flip-flop cleared,
// registers zeroed, every channel masked. Wiring (Mem, Page, Sink, Source,
// OnTC, Clock, Obs) is preserved.
func (s *Sim) Reset() {
	s.flipflop = false
	s.baseAddr, s.curAddr = 0, 0
	s.baseCount, s.curCount = 0, 0
	s.status = 0
	s.mask = 0xf
	s.mode = [4]uint8{}
}

// MarshalState implements snap.Snapshotter. The first/last flip-flop is
// part of the wire state: a snapshot taken between the two bytes of a
// 16-bit address write restores with the byte pairing intact.
func (s *Sim) MarshalState(dst []byte) ([]byte, error) {
	dst, patch := snap.AppendHeader(dst, snapName)
	dst = snap.AppendBool(dst, s.flipflop)
	dst = snap.AppendU16(dst, s.baseAddr)
	dst = snap.AppendU16(dst, s.curAddr)
	dst = snap.AppendU16(dst, s.baseCount)
	dst = snap.AppendU16(dst, s.curCount)
	dst = snap.AppendU8(dst, s.status)
	dst = snap.AppendU8(dst, s.mask)
	for _, m := range s.mode {
		dst = snap.AppendU8(dst, m)
	}
	return snap.FinishHeader(dst, patch), nil
}

// UnmarshalState implements snap.Snapshotter.
func (s *Sim) UnmarshalState(data []byte) error {
	r, err := snap.NewReader(data, snapName)
	if err != nil {
		return err
	}
	s.flipflop = r.Bool()
	s.baseAddr = r.U16()
	s.curAddr = r.U16()
	s.baseCount = r.U16()
	s.curCount = r.U16()
	s.status = r.U8()
	s.mask = r.U8()
	for i := range s.mode {
		s.mode[i] = r.U8()
	}
	return r.Close()
}
