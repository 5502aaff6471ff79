package farm

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"reflect"
	"testing"
)

// pinnedHosts are fixed hosts of every workload kind and variant whose
// snapshot bytes TestSnapshotBytesPinned locks down.
var pinnedHosts = []struct {
	spec WorkloadSpec
	sum  string // SHA-256 over the host's snapshots at every step boundary
}{
	{WorkloadSpec{Kind: IDE, Variant: Hand, Sectors: 16},
		"49a3ab1ef65f7c8009c525c6eafcd93e54dea526d1632946dd35046fcf017b70"},
	{WorkloadSpec{Kind: IDE, Variant: Devil, Sectors: 16},
		"580df78a6996454d9a588ffa2a64b87bf1c500a717ffc5f828005c4cbde3c3ff"},
	{WorkloadSpec{Kind: Gfx, Variant: Hand, Size: 24, Rects: 3},
		"6e0c9d8480cf774b36f80b276e92f1f839cf8bd62fa730da1dec064ba93b930c"},
	{WorkloadSpec{Kind: Gfx, Variant: Devil, Size: 24, Rects: 3},
		"818128459f99d544cea9f7d5ad5d3cceb315bf71e02cf8dd380e03a9f7a44ce0"},
	{soundSpec(Hand),
		"3c9f9929fa76cb53154fa5d8c0dea169082ad81a16e46949f81d0b33688dc273"},
	{soundSpec(Devil),
		"b5f33dab1a5544b16e83228dda1c5d159c92d9eb9cc521f2df8fb87e3d79e01f"},
}

// TestSnapshotBytesPinned locks the snapshot wire format: the blobs of
// fixed hosts, taken before each step and after the last, must hash to the
// values recorded when the format was version 1. A change in how any part
// encodes its state (the dense Permedia2 framebuffer field included) shows
// up as a different sum.
func TestSnapshotBytesPinned(t *testing.T) {
	for _, p := range pinnedHosts {
		name := p.spec.Kind.String() + "-" + p.spec.Variant.String()
		h := New(name, p.spec)
		sum := sha256.New()
		for {
			blob, err := h.Snapshot()
			if err != nil {
				t.Fatalf("%s: snapshot at step %d: %v", name, h.Pos(), err)
			}
			sum.Write(blob)
			if h.Pos() == h.Steps() {
				break
			}
			if _, err := h.StepOnce(); err != nil {
				t.Fatalf("%s: step %s: %v", name, h.StepName(h.Pos()), err)
			}
		}
		if got := hex.EncodeToString(sum.Sum(nil)); got != p.sum {
			t.Errorf("%s: snapshot bytes hash to %s, want %s", name, got, p.sum)
		}
	}
}

// TestRestoreKeepsNoAliasOfBlob overwrites a snapshot blob with 0xff after
// RestoreHost and resumes the host. snap.Reader.Bytes returns views of the
// blob, so a decoder that kept one instead of copying it would see the
// 0xff bytes: the Result or the final snapshot would then differ from
// those of a twin that was never snapshotted. Cutting after the last step
// (where the Run starts over on the restored state) covers a drawn
// framebuffer.
func TestRestoreKeepsNoAliasOfBlob(t *testing.T) {
	for _, p := range pinnedHosts {
		name := p.spec.Kind.String() + "-" + p.spec.Variant.String()
		for cut := 0; cut <= New(name, p.spec).Steps(); cut++ {
			twin, h := New(name, p.spec), New(name, p.spec)
			for h.Pos() < cut {
				if _, err := h.StepOnce(); err != nil {
					t.Fatalf("%s: cut %d: %v", name, cut, err)
				}
				if _, err := twin.StepOnce(); err != nil {
					t.Fatalf("%s: cut %d: twin: %v", name, cut, err)
				}
			}
			blob, err := h.Snapshot()
			if err != nil {
				t.Fatalf("%s: cut %d: snapshot: %v", name, cut, err)
			}
			restored, err := RestoreHost(blob)
			if err != nil {
				t.Fatalf("%s: cut %d: restore: %v", name, cut, err)
			}
			for i := range blob {
				blob[i] = 0xff
			}
			got, want := restored.Run(), twin.Run()
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: cut %d: Result after clobbering the blob %+v != twin %+v", name, cut, got, want)
			}
			gotBlob, err := restored.Snapshot()
			if err != nil {
				t.Fatalf("%s: cut %d: final snapshot: %v", name, cut, err)
			}
			wantBlob, err := twin.Snapshot()
			if err != nil {
				t.Fatalf("%s: cut %d: twin final snapshot: %v", name, cut, err)
			}
			if !bytes.Equal(gotBlob, wantBlob) {
				t.Errorf("%s: cut %d: final snapshot after clobbering the blob differs from the twin's", name, cut)
			}
		}
	}
}

// TestRunAllocatesNothing guards the zero-allocation fleet pass: once a
// host has run its workload, running it again allocates nothing.
func TestRunAllocatesNothing(t *testing.T) {
	for _, p := range pinnedHosts {
		name := p.spec.Kind.String() + "-" + p.spec.Variant.String()
		h := New(name, p.spec)
		if r := h.Run(); r.Err != nil {
			t.Fatalf("%s: first run: %v", name, r.Err)
		}
		if n := testing.AllocsPerRun(5, func() { h.Run() }); n != 0 {
			t.Errorf("%s: a second Run allocates %v times, want 0", name, n)
		}
	}
}
