package cs4236

import (
	"bytes"

	"repro/internal/snap"
)

// snapName identifies this simulator's blobs (distinct from the "cs4236"
// driver-state blobs the Devil stub produces).
const snapName = "cs4236-sim"

// Reset returns the codec to its power-on state: registers zeroed, index 0
// selected, extended addressing disarmed, playback record cleared. Wiring
// (Clock, DREQ, Halt, Obs) is preserved.
func (s *Sim) Reset() {
	s.control = 0
	s.indexed = [32]uint8{}
	s.ext = [32]uint8{}
	s.xa = 0
	s.xm = false
	s.fifo = nil
	s.played = nil
	s.underrun = false
}

// MarshalState implements snap.Snapshotter. The playback record (FIFO
// contents, consumed samples, underrun latch) is state: a mid-clip
// snapshot restores with the DAC exactly where it was.
func (s *Sim) MarshalState(dst []byte) ([]byte, error) {
	dst, patch := snap.AppendHeader(dst, snapName)
	dst = snap.AppendU8(dst, s.control)
	dst = append(dst, s.indexed[:]...)
	dst = append(dst, s.ext[:]...)
	dst = snap.AppendU8(dst, s.xa)
	dst = snap.AppendBool(dst, s.xm)
	dst = snap.AppendBytes(dst, s.fifo)
	dst = snap.AppendBytes(dst, s.played)
	dst = snap.AppendBool(dst, s.underrun)
	return snap.FinishHeader(dst, patch), nil
}

// UnmarshalState implements snap.Snapshotter.
func (s *Sim) UnmarshalState(data []byte) error {
	r, err := snap.NewReader(data, snapName)
	if err != nil {
		return err
	}
	s.control = r.U8()
	for i := range s.indexed {
		s.indexed[i] = r.U8()
	}
	for i := range s.ext {
		s.ext[i] = r.U8()
	}
	s.xa = r.U8()
	s.xm = r.Bool()
	s.fifo = bytes.Clone(r.Bytes())
	s.played = bytes.Clone(r.Bytes())
	s.underrun = r.Bool()
	return r.Close()
}
