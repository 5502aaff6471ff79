package permedia2

import (
	"bytes"
	"testing"

	"repro/internal/bus"
)

func newChip() (*Sim, *bus.Clock) {
	var clk bus.Clock
	return New(&clk, 64, 64), &clk
}

func write(s *Sim, off uint32, v uint32) { s.BusWrite(off, 32, v) }

// packDelta packs signed 16-bit x/y deltas the way the drivers do.
func packDelta(dx, dy int) uint32 {
	return uint32(uint16(int16(dx))) | uint32(uint16(int16(dy)))<<16
}

func fill(s *Sim, x, y, w, h int, color uint32) {
	write(s, RegFBWriteConfig, s.writeConfig) // keep depth
	write(s, RegConstantColor, color)
	write(s, RegRectOrigin, uint32(uint16(x))|uint32(uint16(y))<<16)
	write(s, RegRectSize, uint32(uint16(w))|uint32(uint16(h))<<16)
	write(s, RegRender, RenderFill)
}

func TestFillAndPixel(t *testing.T) {
	s, _ := newChip()
	write(s, RegFBWriteConfig, 1) // 16 bpp
	fill(s, 4, 4, 8, 8, 0xbeef)
	if got := s.Pixel(4, 4); got != 0xbeef {
		t.Errorf("pixel = %#x", got)
	}
	if got := s.Pixel(11, 11); got != 0xbeef {
		t.Errorf("corner = %#x", got)
	}
	if got := s.Pixel(12, 12); got == 0xbeef {
		t.Error("outside the rect painted")
	}
	if s.Fills != 1 {
		t.Errorf("fills = %d", s.Fills)
	}
}

func TestCopyWithNegativeDelta(t *testing.T) {
	s, _ := newChip()
	write(s, RegFBWriteConfig, 0) // 8 bpp
	fill(s, 0, 0, 4, 4, 0x77)
	// Copy (0,0)..(3,3) to (10,20): delta = src - dst = (-10, -20).
	write(s, RegFBSourceOff, packDelta(-10, -20))
	write(s, RegRectOrigin, 10|20<<16)
	write(s, RegRectSize, 4|4<<16)
	write(s, RegRender, RenderCopy)
	if got := s.Pixel(10, 20); got != 0x77 {
		t.Errorf("copied pixel = %#x", got)
	}
	if got := s.Pixel(13, 23); got != 0x77 {
		t.Errorf("copied corner = %#x", got)
	}
	if s.Copies != 1 {
		t.Errorf("copies = %d", s.Copies)
	}
}

func TestOverlappingCopyIsSafe(t *testing.T) {
	s, _ := newChip()
	write(s, RegFBWriteConfig, 0)
	fill(s, 0, 0, 2, 1, 0x11)
	fill(s, 2, 0, 2, 1, 0x22)
	// Shift the 4-pixel strip right by one: overlapping ranges.
	write(s, RegFBSourceOff, packDelta(-1, 0))
	write(s, RegRectOrigin, 1|0<<16)
	write(s, RegRectSize, 4|1<<16)
	write(s, RegRender, RenderCopy)
	if got := s.Pixel(1, 0); got != 0x11 {
		t.Errorf("pixel(1,0) = %#x, want 0x11", got)
	}
	if got := s.Pixel(4, 0); got != 0x22 {
		t.Errorf("pixel(4,0) = %#x, want 0x22", got)
	}
}

func TestFIFOTimingAndStalls(t *testing.T) {
	s, clk := newChip()
	write(s, RegFBWriteConfig, 2) // 32 bpp
	// Fire many large fills back to back without FIFO discipline: the
	// FIFO must stall the writer rather than lose commands.
	for i := 0; i < 20; i++ {
		fill(s, 0, 0, 64, 64, uint32(i))
	}
	if s.Fills != 20 {
		t.Errorf("fills = %d, want 20", s.Fills)
	}
	if s.Stalls == 0 {
		t.Error("expected FIFO stalls under backpressure")
	}
	// Drain: polling the FIFO advances virtual time until the engine has
	// finished everything; the total must cover the engine time of all
	// fills, and the FIFO must then read fully free.
	for s.BusRead(RegInFIFOSpace, 32) != FIFODepth {
		clk.Advance(50)
	}
	minBusy := uint64(20) * (setupNS + 64*64*4*fillByteNS)
	if clk.Now() < minBusy {
		t.Errorf("clock = %d, want >= %d", clk.Now(), minBusy)
	}
}

func TestBytesPerPixel(t *testing.T) {
	s, _ := newChip()
	for code, want := range map[uint32]int{0: 1, 1: 2, 3: 3, 2: 4} {
		write(s, RegFBWriteConfig, code)
		if got := s.BytesPerPixel(); got != want {
			t.Errorf("code %d: bpp = %d, want %d", code, got, want)
		}
	}
}

// depths are the FBWriteConfig codes for 8, 16 and 32 bpp.
var depths = []struct {
	code uint32
	bpp  int
	mask uint32
}{{0, 1, 0xff}, {1, 2, 0xffff}, {2, 4, 0xffffffff}}

var sink *Sim

func TestNewAllocatesNoFramebuffer(t *testing.T) {
	var clk bus.Clock
	// The one allocation is the Sim itself.
	if n := testing.AllocsPerRun(10, func() { sink = New(&clk, 1024, 768) }); n != 1 {
		t.Errorf("New allocates %v times, want 1", n)
	}
	if len(sink.fb) != 0 {
		t.Errorf("fresh framebuffer holds %d bytes, want 0", len(sink.fb))
	}
}

func TestUntouchedPixelsReadZero(t *testing.T) {
	s, _ := newChip()
	for _, d := range depths {
		write(s, RegFBWriteConfig, d.code)
		for _, p := range [][2]int{{0, 0}, {17, 9}, {63, 63}} {
			if got := s.Pixel(p[0], p[1]); got != 0 {
				t.Errorf("%d bpp: untouched pixel %v = %#x, want 0", 8*d.bpp, p, got)
			}
		}
	}
	// Past the high-water mark of a small fill, pixels still read zero.
	write(s, RegFBWriteConfig, 2)
	fill(s, 0, 0, 1, 1, 0xffffffff)
	if got := s.Pixel(1, 0); got != 0 {
		t.Errorf("pixel past the high-water mark = %#x, want 0", got)
	}
}

// TestFillBottomRightCorner clips a fill at the last pixel of the screen,
// which grows the framebuffer to its full extent for that depth.
func TestFillBottomRightCorner(t *testing.T) {
	const color = 0xa1b2c3d4
	for _, d := range depths {
		s, _ := newChip()
		write(s, RegFBWriteConfig, d.code)
		fill(s, 61, 62, 8, 8, color)
		for y := 60; y < 64; y++ {
			for x := 59; x < 64; x++ {
				want := uint32(0)
				if x >= 61 && y >= 62 {
					want = color & d.mask
				}
				if got := s.Pixel(x, y); got != want {
					t.Errorf("%d bpp: pixel (%d,%d) = %#x, want %#x", 8*d.bpp, x, y, got, want)
				}
			}
		}
		if want := 64 * 64 * d.bpp; len(s.fb) != want {
			t.Errorf("%d bpp: framebuffer holds %d bytes, want %d", 8*d.bpp, len(s.fb), want)
		}
	}
}

// TestCopyFromUntouchedSource copies from pixels no primitive has written:
// they copy as zero, also where the source straddles the high-water mark.
func TestCopyFromUntouchedSource(t *testing.T) {
	const color = 0x5566_7788
	copyRect := func(s *Sim, dx, dy, x, y, w, h int) {
		write(s, RegFBSourceOff, packDelta(dx, dy))
		write(s, RegRectOrigin, uint32(x)|uint32(y)<<16)
		write(s, RegRectSize, uint32(w)|uint32(h)<<16)
		write(s, RegRender, RenderCopy)
	}
	for _, d := range depths {
		s, _ := newChip()
		write(s, RegFBWriteConfig, d.code)
		fill(s, 0, 0, 4, 4, color)
		// Row 3 ends at the high-water mark: copy its last two pixels and
		// two untouched ones after them to (10,20).
		copyRect(s, -8, -17, 10, 20, 4, 1)
		// Blank the filled square with untouched pixels from (50,50).
		copyRect(s, 50, 50, 0, 0, 4, 4)
		for _, c := range []struct {
			x, y int
			want uint32
		}{
			{10, 20, color & d.mask}, {11, 20, color & d.mask},
			{12, 20, 0}, {13, 20, 0},
			{0, 0, 0}, {3, 3, 0}, {3, 0, 0},
		} {
			if got := s.Pixel(c.x, c.y); got != c.want {
				t.Errorf("%d bpp: pixel (%d,%d) = %#x, want %#x", 8*d.bpp, c.x, c.y, got, c.want)
			}
		}
	}
}

func TestResetEmptiesFramebuffer(t *testing.T) {
	s, _ := newChip()
	write(s, RegFBWriteConfig, 2)
	fill(s, 0, 0, 64, 64, 0xffffffff)
	s.Reset()
	if len(s.fb) != 0 {
		t.Fatalf("framebuffer holds %d bytes after Reset, want 0", len(s.fb))
	}
	// Growing back over the old extent must not resurrect old pixels.
	write(s, RegFBWriteConfig, 2)
	fill(s, 63, 63, 1, 1, 1)
	for _, p := range [][2]int{{0, 0}, {32, 32}, {62, 63}} {
		if got := s.Pixel(p[0], p[1]); got != 0 {
			t.Errorf("pixel %v = %#x after Reset, want 0", p, got)
		}
	}
}

// TestRestoreLastByteOnly restores a dense blob whose only non-zero
// framebuffer byte is the very last: the restored framebuffer grows to the
// full extent, holds that byte, and marshals back to the same blob.
func TestRestoreLastByteOnly(t *testing.T) {
	s, _ := newChip()
	s.touch(s.fbSize())
	s.fb[len(s.fb)-1] = 0x5a
	blob, err := s.MarshalState(nil)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := newChip()
	if err := r.UnmarshalState(blob); err != nil {
		t.Fatal(err)
	}
	if len(r.fb) != r.fbSize() {
		t.Fatalf("restored framebuffer holds %d bytes, want %d", len(r.fb), r.fbSize())
	}
	if got := r.fb[len(r.fb)-1]; got != 0x5a {
		t.Errorf("last byte = %#x, want 0x5a", got)
	}
	again, err := r.MarshalState(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, blob) {
		t.Error("re-marshaled blob differs")
	}
	// An all-zero framebuffer field restores to an empty framebuffer.
	empty, _ := newChip()
	blob, _ = empty.MarshalState(nil)
	if err := r.UnmarshalState(blob); err != nil {
		t.Fatal(err)
	}
	if len(r.fb) != 0 {
		t.Errorf("all-zero blob restored %d framebuffer bytes, want 0", len(r.fb))
	}
}
