// Package snap defines the device-state snapshot wire format and the
// Snapshotter interface every stateful component of a simulated host
// implements: generated Devil stubs (devilc emits MarshalState and
// UnmarshalState from the specification), the exec interpreter (the same
// layout, walked dynamically from the sema-checked spec), the bus
// primitives (Clock, Space, IRQLine, RAM), and the register-accurate
// simulators. Snapshots compose: a whole host serializes as a sequence of
// part blobs, each self-delimiting, so containers concatenate parts and
// readers skip ones they do not understand.
//
// # Wire format
//
// Every blob starts with a versioned, length-prefixed header:
//
//	offset  size  field
//	0       4     magic "DVSN"
//	4       2     format version (little-endian; currently 1)
//	6       2     name length N (little-endian)
//	8       N     name (UTF-8, the producer's identity, e.g. "cs4236")
//	8+N     4     payload length P (little-endian)
//	12+N    P     payload
//
// All integers in the payload are little-endian and fixed-width; booleans
// are one byte (0 or 1). The payload layout is the producer's contract:
// for spec-derived device state it is the canonical order defined by
// ir.StateLayout, identical for the generated stubs and the interpreter,
// so cross-path snapshots compare byte for byte.
//
// Decoding never panics: Reader accumulates the first error and turns
// every later access into a zero-value no-op, so truncated or corrupted
// input surfaces as an error from Close.
package snap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
)

// Snapshotter is implemented by every component that can serialize its
// state. MarshalState appends one self-delimiting blob (header included)
// to dst and returns the extended slice. UnmarshalState replaces the
// receiver's state from one blob; it must reject blobs whose header name
// or payload shape does not match and must never panic on corrupt input.
type Snapshotter interface {
	MarshalState(dst []byte) ([]byte, error)
	UnmarshalState(data []byte) error
}

// Version is the current wire-format version stamped into headers.
const Version = 1

// magic identifies a snapshot blob.
var magic = [4]byte{'D', 'V', 'S', 'N'}

// headerFixed is the byte size of the header around the variable-length
// name: magic + version + name length before it, payload length after.
const headerFixed = 4 + 2 + 2 + 4

// ErrTruncated reports input shorter than its declared structure.
var ErrTruncated = errors.New("snap: truncated input")

// Header is the decoded blob header.
type Header struct {
	Version uint16
	Name    string
	// PayloadLen is the declared payload length in bytes.
	PayloadLen uint32
}

// AppendHeader appends a blob header for name with a payload-length
// placeholder and returns the extended slice plus the opaque patch mark to
// pass to FinishHeader once the payload has been appended.
func AppendHeader(dst []byte, name string) ([]byte, int) {
	dst = append(dst, magic[:]...)
	dst = binary.LittleEndian.AppendUint16(dst, Version)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(name)))
	dst = append(dst, name...)
	patch := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, 0)
	return dst, patch
}

// FinishHeader patches the payload length of the header started by
// AppendHeader, where everything appended after the mark is payload.
func FinishHeader(dst []byte, patch int) []byte {
	binary.LittleEndian.PutUint32(dst[patch:], uint32(len(dst)-patch-4))
	return dst
}

// AppendU8 appends one byte.
func AppendU8(dst []byte, v uint8) []byte { return append(dst, v) }

// AppendU16 appends a little-endian uint16.
func AppendU16(dst []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(dst, v) }

// AppendU32 appends a little-endian uint32.
func AppendU32(dst []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(dst, v) }

// AppendU64 appends a little-endian uint64.
func AppendU64(dst []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(dst, v) }

// AppendBool appends one byte, 1 for true.
func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendBytes appends a uint32 length prefix followed by b.
func AppendBytes(dst []byte, b []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b)))
	return append(dst, b...)
}

// AppendString appends a uint32 length prefix followed by s.
func AppendString(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

// ReadHeader decodes the header of the blob starting data, returning the
// header, its payload, and the remainder of data after the blob — the next
// part of a container. Corrupt or truncated input returns an error.
func ReadHeader(data []byte) (Header, []byte, []byte, error) {
	var h Header
	if len(data) < headerFixed {
		return h, nil, nil, ErrTruncated
	}
	if [4]byte(data[:4]) != magic {
		return h, nil, nil, fmt.Errorf("snap: bad magic %q", data[:4])
	}
	h.Version = binary.LittleEndian.Uint16(data[4:])
	if h.Version != Version {
		return h, nil, nil, fmt.Errorf("snap: unsupported format version %d", h.Version)
	}
	nameLen := int(binary.LittleEndian.Uint16(data[6:]))
	if len(data) < headerFixed+nameLen {
		return h, nil, nil, ErrTruncated
	}
	h.Name = string(data[8 : 8+nameLen])
	h.PayloadLen = binary.LittleEndian.Uint32(data[8+nameLen:])
	body := data[headerFixed+nameLen:]
	if uint32(len(body)) < h.PayloadLen {
		return h, nil, nil, fmt.Errorf("snap: %s: %w (declared %d payload bytes, have %d)",
			h.Name, ErrTruncated, h.PayloadLen, len(body))
	}
	return h, body[:h.PayloadLen], body[h.PayloadLen:], nil
}

// Part splits the first blob off a container's payload, returning the
// whole blob (header included) and the remainder. Containers concatenate
// self-delimiting part blobs; consumers peel them off in order.
func Part(data []byte) (blob, rest []byte, err error) {
	if _, _, rest, err = ReadHeader(data); err != nil {
		return nil, nil, err
	}
	return data[:len(data)-len(rest)], rest, nil
}

// MarshalParts appends a container blob named name whose payload is the
// concatenation of the parts' blobs, in order.
func MarshalParts(dst []byte, name string, parts ...Snapshotter) ([]byte, error) {
	dst, patch := AppendHeader(dst, name)
	var err error
	for _, p := range parts {
		if dst, err = p.MarshalState(dst); err != nil {
			return nil, err
		}
	}
	return FinishHeader(dst, patch), nil
}

// UnmarshalParts decodes a container blob named name whose payload is the
// concatenation of the parts' blobs, in the same order they were
// marshaled.
func UnmarshalParts(data []byte, name string, parts ...Snapshotter) error {
	h, payload, _, err := ReadHeader(data)
	if err != nil {
		return err
	}
	if h.Name != name {
		return fmt.Errorf("snap: blob is %q, want %q", h.Name, name)
	}
	for _, p := range parts {
		blob, rest, err := Part(payload)
		if err != nil {
			return fmt.Errorf("snap: %s: %w", name, err)
		}
		if err := p.UnmarshalState(blob); err != nil {
			return err
		}
		payload = rest
	}
	if len(payload) != 0 {
		return fmt.Errorf("snap: %s: %d trailing payload bytes (state shape mismatch)", name, len(payload))
	}
	return nil
}

// Reader decodes one blob's payload. All accessors are total: after the
// first error every call returns the zero value, and Close reports what
// went wrong (including payload bytes left over), so decoding corrupt
// input can never panic.
type Reader struct {
	name string
	buf  []byte
	off  int
	err  error
}

// NewReader checks the blob header against wantName and returns a reader
// positioned at the start of the payload.
func NewReader(data []byte, wantName string) (*Reader, error) {
	h, payload, _, err := ReadHeader(data)
	if err != nil {
		return nil, err
	}
	if h.Name != wantName {
		return nil, fmt.Errorf("snap: blob is %q, want %q", h.Name, wantName)
	}
	return &Reader{name: wantName, buf: payload}, nil
}

// fail latches the first error.
func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = fmt.Errorf("snap: %s: %w", r.name, err)
	}
}

// take returns the next n payload bytes, capacity capped at n, or nil
// after latching an error.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.fail(ErrTruncated)
		return nil
	}
	b := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Bool reads one byte and requires it to be 0 or 1.
func (r *Reader) Bool() bool {
	b := r.take(1)
	if b == nil {
		return false
	}
	if b[0] > 1 {
		r.fail(fmt.Errorf("invalid boolean byte %#x", b[0]))
		return false
	}
	return b[0] == 1
}

// Bytes reads a uint32 length prefix and returns that many bytes as a
// view of the blob, not a copy: its capacity is capped at its length, so
// appending to it cannot overwrite the rest of the blob, but it aliases
// the blob's bytes. A decoder that keeps the bytes beyond UnmarshalState
// must copy them; one that copies them into a buffer of its own can use
// the view directly.
func (r *Reader) Bytes() []byte {
	n := r.U32()
	if r.err != nil {
		return nil
	}
	if uint64(n) > uint64(len(r.buf)-r.off) {
		r.fail(fmt.Errorf("%w (declared %d bytes)", ErrTruncated, n))
		return nil
	}
	return r.take(int(n))
}

// String reads a uint32 length prefix and that many bytes as a string.
func (r *Reader) String() string { return string(r.Bytes()) }

// zeroChunk is the run of zeros TrimZeros compares a tail against.
var zeroChunk [4096]byte

// TrimZeros returns b up to and including its last non-zero byte: empty
// when b is all zero. It skips a zero tail 4 KiB at a time, one vectorized
// compare per chunk, so trimming a mostly empty framebuffer field does not
// loop over every byte. Decoders call it here because UnmarshalState may
// not re-slice payload bytes itself (the snapdecode analyzer).
func TrimZeros(b []byte) []byte {
	n := len(b)
	for n >= len(zeroChunk) && bytes.Equal(b[n-len(zeroChunk):n], zeroChunk[:]) {
		n -= len(zeroChunk)
	}
	for n > 0 && b[n-1] == 0 {
		n--
	}
	return b[:n]
}

// Err returns the first decoding error, if any, without the
// fully-consumed check of Close.
func (r *Reader) Err() error { return r.err }

// Close finishes decoding: it returns the first error, or an error when
// payload bytes were left unconsumed (a payload-shape mismatch, e.g. a
// snapshot taken at a different optimization level or spec revision).
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("snap: %s: %d trailing payload bytes (state shape mismatch)", r.name, len(r.buf)-r.off)
	}
	return nil
}
