package bus

import (
	"fmt"

	"repro/internal/snap"
)

// The bus primitives implement snap.Snapshotter for the host
// checkpoint/restore path (internal/farm): a suspended host serializes
// its clock, per-space operation counters, memory contents, and latched
// interrupts alongside the device simulators and driver stubs, and a
// freshly wired host restores them. Wiring (mappings, cost models,
// observers, span stacks) is reconstruction-time configuration and never
// travels in a blob.

// MarshalState implements snap.Snapshotter: the current virtual time.
func (c *Clock) MarshalState(dst []byte) ([]byte, error) {
	dst, patch := snap.AppendHeader(dst, "clock")
	dst = snap.AppendU64(dst, c.ns)
	return snap.FinishHeader(dst, patch), nil
}

// UnmarshalState implements snap.Snapshotter.
func (c *Clock) UnmarshalState(data []byte) error {
	r, err := snap.NewReader(data, "clock")
	if err != nil {
		return err
	}
	c.ns = r.U64()
	return r.Close()
}

// MarshalState implements snap.Snapshotter: the operation counters. The
// mappings, cost model, and observer are wiring.
func (s *Space) MarshalState(dst []byte) ([]byte, error) {
	st := s.stats
	dst, patch := snap.AppendHeader(dst, "space")
	dst = snap.AppendU64(dst, st.In)
	dst = snap.AppendU64(dst, st.Out)
	dst = snap.AppendU64(dst, st.BlockIn)
	dst = snap.AppendU64(dst, st.BlockOut)
	dst = snap.AppendU64(dst, st.BlockUnits)
	dst = snap.AppendU64(dst, st.Faults)
	return snap.FinishHeader(dst, patch), nil
}

// UnmarshalState implements snap.Snapshotter.
func (s *Space) UnmarshalState(data []byte) error {
	r, err := snap.NewReader(data, "space")
	if err != nil {
		return err
	}
	var st Stats
	st.In = r.U64()
	st.Out = r.U64()
	st.BlockIn = r.U64()
	st.BlockOut = r.U64()
	st.BlockUnits = r.U64()
	st.Faults = r.U64()
	if err := r.Close(); err != nil {
		return err
	}
	s.stats = st
	return nil
}

// MarshalState implements snap.Snapshotter: the latched and lifetime
// interrupt counts.
func (l *IRQLine) MarshalState(dst []byte) ([]byte, error) {
	dst, patch := snap.AppendHeader(dst, "irq")
	dst = snap.AppendU64(dst, l.pending)
	dst = snap.AppendU64(dst, l.total)
	return snap.FinishHeader(dst, patch), nil
}

// UnmarshalState implements snap.Snapshotter.
func (l *IRQLine) UnmarshalState(data []byte) error {
	r, err := snap.NewReader(data, "irq")
	if err != nil {
		return err
	}
	pending, total := r.U64(), r.U64()
	if err := r.Close(); err != nil {
		return err
	}
	l.pending, l.total = pending, total
	return nil
}

// MarshalState implements snap.Snapshotter: the memory contents and the
// fault counter. The Strict flag is wiring.
func (r *RAM) MarshalState(dst []byte) ([]byte, error) {
	dst, patch := snap.AppendHeader(dst, "ram")
	dst = snap.AppendBytes(dst, r.Data)
	dst = snap.AppendU64(dst, r.Faults)
	return snap.FinishHeader(dst, patch), nil
}

// UnmarshalState implements snap.Snapshotter. The receiver must have been
// allocated at the size the blob was taken at.
func (r *RAM) UnmarshalState(data []byte) error {
	rd, err := snap.NewReader(data, "ram")
	if err != nil {
		return err
	}
	b := rd.Bytes()
	if rd.Err() == nil && len(b) != len(r.Data) {
		return fmt.Errorf("snap: ram: blob holds %d bytes, RAM is %d", len(b), len(r.Data))
	}
	copy(r.Data, b)
	r.Faults = rd.U64()
	return rd.Close()
}
