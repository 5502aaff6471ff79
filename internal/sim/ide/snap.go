package ide

import (
	"bytes"
	"fmt"

	"repro/internal/snap"
)

// snapName identifies this simulator's blobs. One blob carries the whole
// Disk — task file, PIO transfer engine, media image, and the PIIX4
// busmaster function (the "ide" and "piix4" stubs program two register
// windows of this one simulator).
const snapName = "ide-sim"

// Reset returns the drive to its power-on state: task file cleared, drive
// ready, media image refilled with the deterministic construction pattern,
// busmaster idle. Wiring (clock, memory, IRQ, Obs) and capacity are
// preserved.
func (d *Disk) Reset() {
	for i := range d.image {
		sector := i / SectorSize
		d.image[i] = byte(sector ^ (i * 7))
	}
	d.feat, d.nsect, d.lbaLow, d.lbaMid, d.lbaHigh, d.devHead = 0, 0, 0, 0, 0, 0
	d.status = StDRDY | StDSC
	d.errreg = 0
	d.ctl = 0
	d.multiple = 1
	d.xferIsSingle = false
	d.xfer.active, d.xfer.write = false, false
	d.xfer.lba, d.xfer.remaining, d.xfer.pos = 0, 0, 0
	d.xfer.buf = nil
	d.bmCmd, d.bmStatus = 0, 0
	d.prd = 0
	d.dmaPending, d.dmaWrite = false, false
	d.dmaLBA, d.dmaCount = 0, 0
	d.IRQCount = 0
}

// MarshalState implements snap.Snapshotter. The media image travels in
// the blob (writes mutate it), as does the in-flight PIO buffer, so a
// snapshot taken mid-DRQ-phase restores with the transfer exactly where
// it was.
func (d *Disk) MarshalState(dst []byte) ([]byte, error) {
	dst, patch := snap.AppendHeader(dst, snapName)
	dst = snap.AppendBytes(dst, d.image)
	for _, v := range []uint8{
		d.feat, d.nsect, d.lbaLow, d.lbaMid, d.lbaHigh, d.devHead,
		d.status, d.errreg, d.ctl,
	} {
		dst = snap.AppendU8(dst, v)
	}
	dst = snap.AppendU32(dst, uint32(d.multiple))
	dst = snap.AppendBool(dst, d.xferIsSingle)
	dst = snap.AppendBool(dst, d.xfer.active)
	dst = snap.AppendBool(dst, d.xfer.write)
	dst = snap.AppendU32(dst, uint32(d.xfer.lba))
	dst = snap.AppendU32(dst, uint32(d.xfer.remaining))
	dst = snap.AppendBytes(dst, d.xfer.buf)
	dst = snap.AppendU32(dst, uint32(d.xfer.pos))
	dst = snap.AppendU8(dst, d.bmCmd)
	dst = snap.AppendU8(dst, d.bmStatus)
	dst = snap.AppendU32(dst, d.prd)
	dst = snap.AppendBool(dst, d.dmaPending)
	dst = snap.AppendBool(dst, d.dmaWrite)
	dst = snap.AppendU32(dst, uint32(d.dmaLBA))
	dst = snap.AppendU32(dst, uint32(d.dmaCount))
	dst = snap.AppendU64(dst, d.IRQCount)
	return snap.FinishHeader(dst, patch), nil
}

// UnmarshalState implements snap.Snapshotter. The receiver must have been
// constructed with the capacity the blob was taken at.
func (d *Disk) UnmarshalState(data []byte) error {
	r, err := snap.NewReader(data, snapName)
	if err != nil {
		return err
	}
	image := r.Bytes()
	if r.Err() == nil && len(image) != len(d.image) {
		return fmt.Errorf("snap: %s: image blob is %d bytes, drive holds %d", snapName, len(image), len(d.image))
	}
	copy(d.image, image)
	for _, p := range []*uint8{
		&d.feat, &d.nsect, &d.lbaLow, &d.lbaMid, &d.lbaHigh, &d.devHead,
		&d.status, &d.errreg, &d.ctl,
	} {
		*p = r.U8()
	}
	d.multiple = int(r.U32())
	d.xferIsSingle = r.Bool()
	d.xfer.active = r.Bool()
	d.xfer.write = r.Bool()
	d.xfer.lba = int(r.U32())
	d.xfer.remaining = int(r.U32())
	d.xfer.buf = bytes.Clone(r.Bytes())
	d.xfer.pos = int(r.U32())
	d.bmCmd = r.U8()
	d.bmStatus = r.U8()
	d.prd = r.U32()
	d.dmaPending = r.Bool()
	d.dmaWrite = r.Bool()
	d.dmaLBA = int(r.U32())
	d.dmaCount = int(r.U32())
	d.IRQCount = r.U64()
	return r.Close()
}
