package pic8259

import "repro/internal/snap"

// snapName identifies this simulator's blobs (distinct from the "pic8259"
// driver-state blobs the Devil stub produces).
const snapName = "pic8259-sim"

// Reset returns the controller to its power-on state: uninitialized,
// awaiting ICW1, all requests masked. Wiring (INT, Clock, Obs) is
// preserved.
func (s *Sim) Reset() {
	s.state = wantICW2
	s.icw1 = ICW1Select
	s.icw2, s.icw3, s.icw4 = 0, 0, 0
	s.irr, s.isr = 0, 0
	s.imr = 0xff
	s.readSel = 0
	s.lowest = 7
}

// MarshalState implements snap.Snapshotter. The initialization-automaton
// position is part of the state: a snapshot taken mid-ICW-sequence
// restores still expecting the announced command words.
func (s *Sim) MarshalState(dst []byte) ([]byte, error) {
	dst, patch := snap.AppendHeader(dst, snapName)
	dst = snap.AppendU8(dst, uint8(s.state))
	dst = snap.AppendU8(dst, s.icw1)
	dst = snap.AppendU8(dst, s.icw2)
	dst = snap.AppendU8(dst, s.icw3)
	dst = snap.AppendU8(dst, s.icw4)
	dst = snap.AppendU8(dst, s.irr)
	dst = snap.AppendU8(dst, s.isr)
	dst = snap.AppendU8(dst, s.imr)
	dst = snap.AppendU8(dst, s.readSel)
	dst = snap.AppendU8(dst, s.lowest)
	return snap.FinishHeader(dst, patch), nil
}

// UnmarshalState implements snap.Snapshotter.
func (s *Sim) UnmarshalState(data []byte) error {
	r, err := snap.NewReader(data, snapName)
	if err != nil {
		return err
	}
	s.state = initState(r.U8())
	s.icw1 = r.U8()
	s.icw2 = r.U8()
	s.icw3 = r.U8()
	s.icw4 = r.U8()
	s.irr = r.U8()
	s.isr = r.U8()
	s.imr = r.U8()
	s.readSel = r.U8()
	s.lowest = r.U8()
	return r.Close()
}
