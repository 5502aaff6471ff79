package permedia2

import (
	"fmt"
	"slices"

	"repro/internal/snap"
)

// snapName identifies this simulator's blobs (distinct from the
// "permedia2" driver-state blobs the Devil stub produces).
const snapName = "permedia2-sim"

// maxBatches bounds the FIFO batch list a blob may declare, far above
// anything the FIFO-depth-limited engine can queue.
const maxBatches = 1 << 16

// Reset returns the controller to its power-on state: registers zeroed,
// framebuffer cleared (empty: every pixel reads zero), FIFO empty, engine
// idle. The clock wiring and geometry are preserved.
func (s *Sim) Reset() {
	s.fb = s.fb[:0] // touch zeroes whatever it grows back into
	s.windowBase, s.logicalOp, s.writeConfig, s.color = 0, 0, 0, 0
	s.startXDom, s.startXSub, s.startY, s.dY, s.count = 0, 0, 0, 0, 0
	s.rectOrigin, s.rectSize, s.scissorMin, s.scissorMax = 0, 0, 0, 0
	s.readMode, s.sourceOff = 0, 0
	s.busyUntil = 0
	s.openEntries = 0
	s.batches = s.batches[:0]
	s.Fills, s.Copies, s.Stalls = 0, 0, 0
}

// MarshalState implements snap.Snapshotter. The framebuffer and the
// pending FIFO batches travel in the blob, so a snapshot taken while the
// engine is busy restores mid-drain. The framebuffer field is dense —
// Width×Height×4 bytes, the untouched tail written out as zeros — so the
// wire format does not depend on the high-water mark.
func (s *Sim) MarshalState(dst []byte) ([]byte, error) {
	dst, patch := snap.AppendHeader(dst, snapName)
	dst = snap.AppendU32(dst, uint32(s.Width))
	dst = snap.AppendU32(dst, uint32(s.Height))
	size := s.fbSize()
	dst = snap.AppendU32(dst, uint32(size))
	dst = slices.Grow(dst, size)
	dst = append(dst, s.fb...)
	dst = append(dst, make([]byte, size-len(s.fb))...)
	for _, v := range []uint32{
		s.windowBase, s.logicalOp, s.writeConfig, s.color,
		s.startXDom, s.startXSub, s.startY, s.dY, s.count,
		s.rectOrigin, s.rectSize, s.scissorMin, s.scissorMax,
		s.readMode, s.sourceOff,
	} {
		dst = snap.AppendU32(dst, v)
	}
	dst = snap.AppendU64(dst, s.busyUntil)
	dst = snap.AppendU32(dst, uint32(s.openEntries))
	dst = snap.AppendU32(dst, uint32(len(s.batches)))
	for _, b := range s.batches {
		dst = snap.AppendU64(dst, b.done)
		dst = snap.AppendU32(dst, uint32(b.entries))
	}
	dst = snap.AppendU64(dst, s.Fills)
	dst = snap.AppendU64(dst, s.Copies)
	dst = snap.AppendU64(dst, s.Stalls)
	return snap.FinishHeader(dst, patch), nil
}

// UnmarshalState implements snap.Snapshotter. The receiver must have been
// constructed with the geometry the blob was taken at. Only the framebuffer
// up to its last non-zero byte is copied in, which restores the high-water
// mark no higher than the drawing needs.
func (s *Sim) UnmarshalState(data []byte) error {
	r, err := snap.NewReader(data, snapName)
	if err != nil {
		return err
	}
	w, h := int(r.U32()), int(r.U32())
	if r.Err() == nil && (w != s.Width || h != s.Height) {
		return fmt.Errorf("snap: %s: blob geometry %dx%d, controller is %dx%d", snapName, w, h, s.Width, s.Height)
	}
	fb := r.Bytes()
	if r.Err() == nil && len(fb) != s.fbSize() {
		return fmt.Errorf("snap: %s: framebuffer blob is %d bytes, want %d", snapName, len(fb), s.fbSize())
	}
	s.fb = slices.Clone(snap.TrimZeros(fb))
	for _, p := range []*uint32{
		&s.windowBase, &s.logicalOp, &s.writeConfig, &s.color,
		&s.startXDom, &s.startXSub, &s.startY, &s.dY, &s.count,
		&s.rectOrigin, &s.rectSize, &s.scissorMin, &s.scissorMax,
		&s.readMode, &s.sourceOff,
	} {
		*p = r.U32()
	}
	s.busyUntil = r.U64()
	s.openEntries = int(r.U32())
	n := r.U32()
	if r.Err() == nil && n > maxBatches {
		return fmt.Errorf("snap: %s: %d pending batches (corrupt blob)", snapName, n)
	}
	s.batches = s.batches[:0]
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		s.batches = append(s.batches, pendingBatch{done: r.U64(), entries: int(r.U32())})
	}
	s.Fills = r.U64()
	s.Copies = r.U64()
	s.Stalls = r.U64()
	return r.Close()
}
