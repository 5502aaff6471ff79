// Package permedia2 simulates the 2D engine of a 3Dlabs Permedia2 graphics
// controller, the device of Tables 3 and 4.
//
// Registers are memory-mapped 32-bit words behind an input FIFO. The free-
// entry count is readable at offset 0; drivers must check it before bursting
// command writes (the wait loops of the paper's #w column). A render command
// occupies the engine for a time proportional to pixels × bytes-per-pixel,
// during which further writes queue in the FIFO; when the FIFO fills the
// write stalls the bus until the engine drains, exactly like the hardware.
//
// The framebuffer is an in-memory byte array so tests can verify fills and
// copies pixel by pixel. It is a high-water slice: it holds only the bytes
// up to the highest byte a fill or copy has ever written, and every byte
// past its end reads as zero, so a controller costs no framebuffer memory
// until it draws and then only as much as it has drawn over. Snapshots
// still carry the dense Width×Height×4 framebuffer field.
package permedia2

import (
	"repro/internal/bus"
)

// Register byte offsets (32-bit registers).
const (
	RegInFIFOSpace   = 0
	RegFBWindowBase  = 8
	RegLogicalOpMode = 16
	RegFBWriteConfig = 24
	RegConstantColor = 32
	RegStartXDom     = 40
	RegStartXSub     = 48
	RegStartY        = 56
	RegDY            = 64
	RegCount         = 72
	RegRectOrigin    = 80
	RegRectSize      = 88
	RegScissorMin    = 96
	RegScissorMax    = 104
	RegFBReadMode    = 112
	RegFBSourceOff   = 120
	RegRender        = 128
)

// Render command bits.
const (
	RenderFill = 0x01
	RenderCopy = 0x81
)

// FIFODepth is the number of input FIFO entries.
const FIFODepth = 32

// Engine timing: fixed per-command setup plus per-byte fill/copy cost.
const (
	setupNS    = 200
	fillByteNS = 2
	copyByteNS = 4
)

// Sim is the simulated controller. Map it over 0x88 bytes of a
// memory-mapped space created with bus.DefaultMemCosts.
type Sim struct {
	clock *bus.Clock

	Width, Height int
	fb            []byte // high-water prefix of the Width*Height*4 framebuffer; bytes past len(fb) are zero

	// Register state.
	windowBase, logicalOp, writeConfig, color    uint32
	startXDom, startXSub, startY, dY, count      uint32
	rectOrigin, rectSize, scissorMin, scissorMax uint32
	readMode, sourceOff                          uint32

	busyUntil uint64
	// FIFO bookkeeping: writes accumulate in an open batch; a render closes
	// the batch, which drains when the engine finishes that primitive.
	openEntries int
	batches     []pendingBatch

	// Counters for tests.
	Fills, Copies uint64
	Stalls        uint64
}

// pendingBatch is one queued primitive's worth of FIFO entries, draining at
// the virtual time the engine completes it.
type pendingBatch struct {
	done    uint64
	entries int
}

// New creates a controller with a Width×Height framebuffer. No framebuffer
// memory is allocated until the first primitive draws.
func New(clock *bus.Clock, width, height int) *Sim {
	return &Sim{clock: clock, Width: width, Height: height}
}

// fbSize is the byte size of the dense framebuffer: Width×Height pixels at
// the 32bpp maximum stride.
func (s *Sim) fbSize() int { return s.Width * s.Height * 4 }

// touch extends the framebuffer with zero bytes so that it holds the first
// end bytes.
func (s *Sim) touch(end int) {
	if n := end - len(s.fb); n > 0 {
		s.fb = append(s.fb, make([]byte, n)...)
	}
}

// clip intersects the w×h rectangle at (x, y) with the screen, returning
// the half-open pixel bounds and whether anything is left.
func (s *Sim) clip(x, y, w, h int) (x0, y0, x1, y1 int, ok bool) {
	x0, x1 = max(x, 0), min(x+w, s.Width)
	y0, y1 = max(y, 0), min(y+h, s.Height)
	return x0, y0, x1, y1, x0 < x1 && y0 < y1
}

// BytesPerPixel decodes the framebuffer write configuration depth field.
func (s *Sim) BytesPerPixel() int {
	switch s.writeConfig & 0x3 {
	case 0:
		return 1
	case 1:
		return 2
	case 3:
		return 3
	default:
		return 4
	}
}

// Pixel returns the stored pixel value at (x, y) for verification.
func (s *Sim) Pixel(x, y int) uint32 {
	bpp := s.BytesPerPixel()
	off := (y*s.Width + x) * bpp
	var v uint32
	for i := 0; i < bpp && off+i < len(s.fb); i++ {
		v |= uint32(s.fb[off+i]) << uint(8*i)
	}
	return v
}

// free returns the current free FIFO entries after draining the batches the
// engine has completed by now. The queue drains in place, so its backing
// array is reused instead of reallocated as primitives come and go.
func (s *Sim) free() int {
	now := s.clock.Now()
	n := 0
	for n < len(s.batches) && s.batches[n].done <= now {
		n++
	}
	if n > 0 {
		s.batches = append(s.batches[:0], s.batches[n:]...)
	}
	queued := s.openEntries
	for _, b := range s.batches {
		queued += b.entries
	}
	if queued > FIFODepth {
		queued = FIFODepth
	}
	return FIFODepth - queued
}

// BusRead implements bus.Handler.
func (s *Sim) BusRead(off uint32, width int) uint32 {
	if off == RegInFIFOSpace {
		return uint32(s.free())
	}
	return 0
}

// BusWrite implements bus.Handler.
func (s *Sim) BusWrite(off uint32, width int, v uint32) {
	// FIFO admission: a write into a full FIFO stalls the bus until the
	// engine completes the oldest queued primitive.
	for s.free() == 0 {
		s.Stalls++
		if len(s.batches) == 0 {
			break // bookkeeping overflow without pending work: drop through
		}
		if next := s.batches[0].done; next > s.clock.Now() {
			s.clock.Advance(next - s.clock.Now())
		} else {
			s.batches = append(s.batches[:0], s.batches[1:]...)
		}
	}
	if s.clock.Now() < s.busyUntil {
		s.openEntries++
	}

	switch off {
	case RegFBWindowBase:
		s.windowBase = v
	case RegLogicalOpMode:
		s.logicalOp = v
	case RegFBWriteConfig:
		s.writeConfig = v
	case RegConstantColor:
		s.color = v
	case RegStartXDom:
		s.startXDom = v
	case RegStartXSub:
		s.startXSub = v
	case RegStartY:
		s.startY = v
	case RegDY:
		s.dY = v
	case RegCount:
		s.count = v
	case RegRectOrigin:
		s.rectOrigin = v
	case RegRectSize:
		s.rectSize = v
	case RegScissorMin:
		s.scissorMin = v
	case RegScissorMax:
		s.scissorMax = v
	case RegFBReadMode:
		s.readMode = v
	case RegFBSourceOff:
		s.sourceOff = v
	case RegRender:
		s.render(v)
	}
}

func (s *Sim) render(cmd uint32) {
	x := int(int16(s.rectOrigin & 0xffff))
	y := int(int16(s.rectOrigin >> 16))
	w := int(s.rectSize & 0xffff)
	h := int(s.rectSize >> 16)
	bpp := s.BytesPerPixel()

	if cmd&0x01 == 0 {
		return // not a rectangle primitive
	}
	var perByte uint64 = fillByteNS
	if cmd&0x80 != 0 { // framebuffer source enabled: screen copy
		perByte = copyByteNS
		s.copyRect(x, y, w, h, bpp)
		s.Copies++
	} else {
		s.fillRect(x, y, w, h, bpp)
		s.Fills++
	}
	busy := setupNS + uint64(w*h*bpp)*perByte
	start := s.busyUntil
	if now := s.clock.Now(); now > start {
		start = now
	}
	s.busyUntil = start + busy
	// Close the open batch: its entries drain when this primitive is done.
	s.batches = append(s.batches, pendingBatch{done: s.busyUntil, entries: s.openEntries})
	s.openEntries = 0
}

func (s *Sim) fillRect(x, y, w, h, bpp int) {
	x0, y0, x1, y1, ok := s.clip(x, y, w, h)
	if !ok {
		return
	}
	s.touch(((y1-1)*s.Width + x1) * bpp)
	for yy := y0; yy < y1; yy++ {
		for xx := x0; xx < x1; xx++ {
			off := (yy*s.Width + xx) * bpp
			for i := 0; i < bpp; i++ {
				s.fb[off+i] = byte(s.color >> uint(8*i))
			}
		}
	}
}

// copyRect moves a w×h block; the source origin is the destination origin
// displaced by the packed signed 16-bit deltas in fb_source_offset. Source
// pixels past the framebuffer's high-water mark copy as zero.
func (s *Sim) copyRect(x, y, w, h, bpp int) {
	dx := int(int16(s.sourceOff & 0xffff))
	dy := int(int16(s.sourceOff >> 16))
	src := make([]byte, w*h*bpp)
	for yy := 0; yy < h; yy++ {
		sy := y + dy + yy
		if sy < 0 || sy >= s.Height {
			continue
		}
		for xx := 0; xx < w; xx++ {
			sx := x + dx + xx
			if sx < 0 || sx >= s.Width {
				continue
			}
			if off := (sy*s.Width + sx) * bpp; off < len(s.fb) {
				copy(src[(yy*w+xx)*bpp:(yy*w+xx+1)*bpp], s.fb[off:])
			}
		}
	}
	_, _, x1, y1, ok := s.clip(x, y, w, h)
	if !ok {
		return
	}
	s.touch(((y1-1)*s.Width + x1) * bpp)
	for yy := 0; yy < h; yy++ {
		ty := y + yy
		if ty < 0 || ty >= s.Height {
			continue
		}
		for xx := 0; xx < w; xx++ {
			tx := x + xx
			if tx < 0 || tx >= s.Width {
				continue
			}
			copy(s.fb[(ty*s.Width+tx)*bpp:(ty*s.Width+tx)*bpp+bpp], src[(yy*w+xx)*bpp:])
		}
	}
}
