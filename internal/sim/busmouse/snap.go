package busmouse

import "repro/internal/snap"

// snapName identifies this simulator's blobs (distinct from the "busmouse"
// driver-state blobs the Devil stub produces).
const snapName = "busmouse-sim"

// Reset returns the mouse to its power-on state: no pending movement, all
// buttons released, interrupts enabled. The IRQ wiring is preserved.
func (s *Sim) Reset() {
	s.accX, s.accY = 0, 0
	s.buttons = 0x7
	s.held = false
	s.latX, s.latY, s.latButtons = 0, 0, 0
	s.index = 0
	s.intrDisabled = false
	s.signature = 0
	s.config = 0
}

// MarshalState implements snap.Snapshotter.
func (s *Sim) MarshalState(dst []byte) ([]byte, error) {
	dst, patch := snap.AppendHeader(dst, snapName)
	dst = snap.AppendU8(dst, uint8(s.accX))
	dst = snap.AppendU8(dst, uint8(s.accY))
	dst = snap.AppendU8(dst, s.buttons)
	dst = snap.AppendBool(dst, s.held)
	dst = snap.AppendU8(dst, uint8(s.latX))
	dst = snap.AppendU8(dst, uint8(s.latY))
	dst = snap.AppendU8(dst, s.latButtons)
	dst = snap.AppendU8(dst, s.index)
	dst = snap.AppendBool(dst, s.intrDisabled)
	dst = snap.AppendU8(dst, s.signature)
	dst = snap.AppendU8(dst, s.config)
	return snap.FinishHeader(dst, patch), nil
}

// UnmarshalState implements snap.Snapshotter.
func (s *Sim) UnmarshalState(data []byte) error {
	r, err := snap.NewReader(data, snapName)
	if err != nil {
		return err
	}
	s.accX = int8(r.U8())
	s.accY = int8(r.U8())
	s.buttons = r.U8()
	s.held = r.Bool()
	s.latX = int8(r.U8())
	s.latY = int8(r.U8())
	s.latButtons = r.U8()
	s.index = r.U8()
	s.intrDisabled = r.Bool()
	s.signature = r.U8()
	s.config = r.U8()
	return r.Close()
}
