package snap_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/snap"
)

// blob builds a complete blob named name around payload.
func blob(name string, payload ...byte) []byte {
	dst, patch := snap.AppendHeader(nil, name)
	return snap.FinishHeader(append(dst, payload...), patch)
}

func TestHeaderRoundTrip(t *testing.T) {
	data := blob("dev", 1, 2, 3)
	data = append(data, 0xee) // the next part of a container
	h, payload, rest, err := snap.ReadHeader(data)
	if err != nil {
		t.Fatal(err)
	}
	if h.Version != snap.Version || h.Name != "dev" || h.PayloadLen != 3 {
		t.Errorf("header = %+v", h)
	}
	if !bytes.Equal(payload, []byte{1, 2, 3}) || !bytes.Equal(rest, []byte{0xee}) {
		t.Errorf("payload = %v, rest = %v", payload, rest)
	}
}

func TestReadHeaderRejects(t *testing.T) {
	good := blob("dev", 1, 2, 3)
	badMagic := append([]byte("XXXX"), good[4:]...)
	badVersion := append([]byte(nil), good...)
	badVersion[4] = snap.Version + 1
	for name, tc := range map[string]struct {
		data []byte
		want string
	}{
		"bad magic":     {badMagic, "bad magic"},
		"version":       {badVersion, "unsupported format version"},
		"short header":  {good[:5], "truncated"},
		"short name":    {good[:9], "truncated"},
		"short payload": {good[:len(good)-1], "truncated"},
	} {
		if _, _, _, err := snap.ReadHeader(tc.data); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", name, err, tc.want)
		}
	}
	if _, _, _, err := snap.ReadHeader(good[:len(good)-1]); !errors.Is(err, snap.ErrTruncated) {
		t.Errorf("short payload: err = %v, want ErrTruncated", err)
	}
}

func TestReaderRoundTrip(t *testing.T) {
	dst, patch := snap.AppendHeader(nil, "dev")
	dst = snap.AppendU8(dst, 0xab)
	dst = snap.AppendU16(dst, 0xbeef)
	dst = snap.AppendU32(dst, 0xdeadbeef)
	dst = snap.AppendU64(dst, 1<<40|7)
	dst = snap.AppendBool(dst, true)
	dst = snap.AppendBool(dst, false)
	dst = snap.AppendBytes(dst, []byte{9, 8})
	dst = snap.AppendString(dst, "pfmt")
	dst = snap.FinishHeader(dst, patch)

	r, err := snap.NewReader(dst, "dev")
	if err != nil {
		t.Fatal(err)
	}
	if v := r.U8(); v != 0xab {
		t.Errorf("U8 = %#x", v)
	}
	if v := r.U16(); v != 0xbeef {
		t.Errorf("U16 = %#x", v)
	}
	if v := r.U32(); v != 0xdeadbeef {
		t.Errorf("U32 = %#x", v)
	}
	if v := r.U64(); v != 1<<40|7 {
		t.Errorf("U64 = %#x", v)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool pair did not read true, false")
	}
	if b := r.Bytes(); !bytes.Equal(b, []byte{9, 8}) {
		t.Errorf("Bytes = %v", b)
	}
	if s := r.String(); s != "pfmt" {
		t.Errorf("String = %q", s)
	}
	if err := r.Close(); err != nil {
		t.Error(err)
	}
}

// TestReaderTruncation: every short read latches ErrTruncated, returns
// the zero value, and turns later reads into no-ops instead of panicking.
func TestReaderTruncation(t *testing.T) {
	for name, read := range map[string]func(*snap.Reader){
		"U16":   func(r *snap.Reader) { r.U16() },
		"U32":   func(r *snap.Reader) { r.U32() },
		"U64":   func(r *snap.Reader) { r.U64() },
		"Bytes": func(r *snap.Reader) { r.Bytes() },
	} {
		r, err := snap.NewReader(blob("dev", 1), "dev")
		if err != nil {
			t.Fatal(err)
		}
		read(r)
		if !errors.Is(r.Err(), snap.ErrTruncated) {
			t.Errorf("%s: Err = %v, want ErrTruncated", name, r.Err())
		}
		if v := r.U8(); v != 0 {
			t.Errorf("%s: U8 after error = %d, want 0", name, v)
		}
		if !errors.Is(r.Close(), snap.ErrTruncated) {
			t.Errorf("%s: Close = %v, want ErrTruncated", name, r.Close())
		}
	}
}

// TestReaderBytesOversizedPrefix: a length prefix larger than the rest of
// the payload is refused before any allocation of that size.
func TestReaderBytesOversizedPrefix(t *testing.T) {
	payload := snap.AppendU32(nil, 1<<31)
	payload = append(payload, 1, 2)
	r, err := snap.NewReader(blob("dev", payload...), "dev")
	if err != nil {
		t.Fatal(err)
	}
	if b := r.Bytes(); b != nil {
		t.Errorf("Bytes = %v, want nil", b)
	}
	if !errors.Is(r.Err(), snap.ErrTruncated) {
		t.Errorf("Err = %v, want ErrTruncated", r.Err())
	}
}

// TestReaderBytesIsCappedView: Bytes returns a view of the blob, not a
// copy, whose capacity ends at its length, so appending to it reallocates
// instead of overwriting the fields that follow.
func TestReaderBytesIsCappedView(t *testing.T) {
	payload := snap.AppendBytes(nil, []byte{1, 2, 3})
	payload = snap.AppendU8(payload, 0x77)
	data := blob("dev", payload...)
	r, err := snap.NewReader(data, "dev")
	if err != nil {
		t.Fatal(err)
	}
	b := r.Bytes()
	if !bytes.Equal(b, []byte{1, 2, 3}) || cap(b) != 3 {
		t.Fatalf("Bytes = %v (cap %d), want [1 2 3] (cap 3)", b, cap(b))
	}
	_ = append(b, 0xee)
	if v := r.U8(); v != 0x77 {
		t.Errorf("field after the bytes = %#x, want 0x77: append wrote through the view", v)
	}
	data[len(data)-2] = 9 // the last of the three bytes
	if b[2] != 9 {
		t.Error("Bytes copied the blob; want a view of it")
	}
}

func TestTrimZeros(t *testing.T) {
	// at returns n zero bytes with byte i set to 0xaa (none when i < 0).
	at := func(n, i int) []byte {
		b := make([]byte, n)
		if i >= 0 {
			b[i] = 0xaa
		}
		return b
	}
	for _, tc := range []struct {
		name string
		in   []byte
		want int // length of the result
	}{
		{"nil", nil, 0},
		{"empty", []byte{}, 0},
		{"all zero", at(3*4096+17, -1), 0},
		{"last byte set", at(3*4096+17, 3*4096+16), 3*4096 + 17},
		{"first byte set", at(2*4096, 0), 1},
		{"interior zeros kept", []byte{1, 0, 0, 2, 0}, 4},
		// The last 4 KiB chunk of the input is all zero; the set byte sits
		// just before it, or as its first byte.
		{"just before the chunk edge", at(2*4096+5, 4096+4), 4096 + 5},
		{"just after the chunk edge", at(2*4096+5, 4096+5), 4096 + 6},
		{"chunk-sized", at(4096, 4095), 4096},
	} {
		got := snap.TrimZeros(tc.in)
		if len(got) != tc.want {
			t.Errorf("%s: TrimZeros kept %d bytes, want %d", tc.name, len(got), tc.want)
		}
		if len(got) > 0 && &got[0] != &tc.in[0] {
			t.Errorf("%s: TrimZeros copied; want a prefix of its input", tc.name)
		}
	}
}

func TestReaderBoolRejectsNonBinary(t *testing.T) {
	r, err := snap.NewReader(blob("dev", 2), "dev")
	if err != nil {
		t.Fatal(err)
	}
	if r.Bool() {
		t.Error("Bool(2) = true")
	}
	if err := r.Close(); err == nil || !strings.Contains(err.Error(), "invalid boolean") {
		t.Errorf("Close = %v, want invalid boolean", err)
	}
}

func TestReaderCloseReportsTrailingBytes(t *testing.T) {
	r, err := snap.NewReader(blob("dev", 1, 2, 3), "dev")
	if err != nil {
		t.Fatal(err)
	}
	r.U8()
	if err := r.Close(); err == nil || !strings.Contains(err.Error(), "2 trailing payload bytes") {
		t.Errorf("Close = %v, want 2 trailing bytes", err)
	}
}

func TestNameMismatch(t *testing.T) {
	data := blob("ide", 1)
	if _, err := snap.NewReader(data, "cs4236"); err == nil || !strings.Contains(err.Error(), `blob is "ide", want "cs4236"`) {
		t.Errorf("NewReader: err = %v", err)
	}
	if err := snap.UnmarshalParts(data, "host"); err == nil || !strings.Contains(err.Error(), `blob is "ide", want "host"`) {
		t.Errorf("UnmarshalParts: err = %v", err)
	}
}

// reg is a one-register Snapshotter for the container tests.
type reg struct {
	name string
	v    uint32
}

func (p *reg) MarshalState(dst []byte) ([]byte, error) {
	dst, patch := snap.AppendHeader(dst, p.name)
	return snap.FinishHeader(snap.AppendU32(dst, p.v), patch), nil
}

func (p *reg) UnmarshalState(data []byte) error {
	r, err := snap.NewReader(data, p.name)
	if err != nil {
		return err
	}
	p.v = r.U32()
	return r.Close()
}

func TestPartsRoundTrip(t *testing.T) {
	data, err := snap.MarshalParts(nil, "host", &reg{"a", 1}, &reg{"b", 2})
	if err != nil {
		t.Fatal(err)
	}
	a, b := &reg{name: "a"}, &reg{name: "b"}
	if err := snap.UnmarshalParts(data, "host", a, b); err != nil {
		t.Fatal(err)
	}
	if a.v != 1 || b.v != 2 {
		t.Errorf("restored a=%d b=%d, want 1 2", a.v, b.v)
	}

	// Part peels the blobs off the container payload in order.
	_, payload, _, err := snap.ReadHeader(data)
	if err != nil {
		t.Fatal(err)
	}
	first, rest, err := snap.Part(payload)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.UnmarshalState(first); err != nil || a.v != 1 {
		t.Errorf("first part: v=%d err=%v", a.v, err)
	}
	if err := b.UnmarshalState(rest); err != nil || b.v != 2 {
		t.Errorf("second part: v=%d err=%v", b.v, err)
	}
}

func TestUnmarshalPartsRejects(t *testing.T) {
	one, err := snap.MarshalParts(nil, "host", &reg{"a", 1})
	if err != nil {
		t.Fatal(err)
	}
	// Two parts expected, one present: the missing part is truncated.
	err = snap.UnmarshalParts(one, "host", &reg{name: "a"}, &reg{name: "b"})
	if !errors.Is(err, snap.ErrTruncated) {
		t.Errorf("missing part: err = %v, want ErrTruncated", err)
	}

	two, err := snap.MarshalParts(nil, "host", &reg{"a", 1}, &reg{"b", 2})
	if err != nil {
		t.Fatal(err)
	}
	err = snap.UnmarshalParts(two, "host", &reg{name: "a"})
	if err == nil || !strings.Contains(err.Error(), "trailing payload bytes") {
		t.Errorf("extra part: err = %v, want trailing payload", err)
	}
}
