package ne2000

import (
	"fmt"

	"repro/internal/snap"
)

// snapName identifies this simulator's blobs (distinct from the "ne2000"
// driver-state blobs the Devil stub produces).
const snapName = "ne2000-sim"

// Reset returns the controller to its power-on state: stopped, registers
// and SRAM zeroed. The IRQ wiring is preserved.
func (s *Sim) Reset() {
	s.sram = [sramSize]byte{}
	s.cmd = CmdSTP | CmdRD2
	s.running = false
	s.pstart, s.pstop, s.bnry, s.curr = 0, 0, 0, 0
	s.tpsr, s.tbcr0, s.tbcr1 = 0, 0, 0
	s.rsar0, s.rsar1, s.rbcr0, s.rbcr1 = 0, 0, 0, 0
	s.isr, s.imr, s.dcr, s.rcr, s.tcr = 0, 0, 0, 0, 0
	s.par = [6]uint8{}
	s.mar = [8]uint8{}
	s.remoteAddr, s.remoteCount = 0, 0
	s.remoteWrite = false
	s.TxFrames = 0
}

// MarshalState implements snap.Snapshotter. The on-board SRAM travels in
// the blob: a restored controller serves the same receive ring.
func (s *Sim) MarshalState(dst []byte) ([]byte, error) {
	dst, patch := snap.AppendHeader(dst, snapName)
	dst = snap.AppendBytes(dst, s.sram[:])
	dst = snap.AppendU8(dst, s.cmd)
	dst = snap.AppendBool(dst, s.running)
	for _, v := range []uint8{
		s.pstart, s.pstop, s.bnry, s.curr, s.tpsr, s.tbcr0, s.tbcr1,
		s.rsar0, s.rsar1, s.rbcr0, s.rbcr1, s.isr, s.imr, s.dcr, s.rcr, s.tcr,
	} {
		dst = snap.AppendU8(dst, v)
	}
	dst = append(dst, s.par[:]...)
	dst = append(dst, s.mar[:]...)
	dst = snap.AppendU32(dst, uint32(s.remoteAddr))
	dst = snap.AppendU32(dst, uint32(s.remoteCount))
	dst = snap.AppendBool(dst, s.remoteWrite)
	dst = snap.AppendU64(dst, s.TxFrames)
	return snap.FinishHeader(dst, patch), nil
}

// UnmarshalState implements snap.Snapshotter.
func (s *Sim) UnmarshalState(data []byte) error {
	r, err := snap.NewReader(data, snapName)
	if err != nil {
		return err
	}
	sram := r.Bytes()
	if r.Err() == nil && len(sram) != sramSize {
		return fmt.Errorf("snap: %s: SRAM blob is %d bytes, want %d", snapName, len(sram), sramSize)
	}
	copy(s.sram[:], sram)
	s.cmd = r.U8()
	s.running = r.Bool()
	for _, p := range []*uint8{
		&s.pstart, &s.pstop, &s.bnry, &s.curr, &s.tpsr, &s.tbcr0, &s.tbcr1,
		&s.rsar0, &s.rsar1, &s.rbcr0, &s.rbcr1, &s.isr, &s.imr, &s.dcr, &s.rcr, &s.tcr,
	} {
		*p = r.U8()
	}
	for i := range s.par {
		s.par[i] = r.U8()
	}
	for i := range s.mar {
		s.mar[i] = r.U8()
	}
	s.remoteAddr = int(r.U32())
	s.remoteCount = int(r.U32())
	s.remoteWrite = r.Bool()
	s.TxFrames = r.U64()
	return r.Close()
}
