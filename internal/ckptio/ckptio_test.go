package ckptio

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"govhdl/internal/faultinject"
	"govhdl/internal/pdes"
	"govhdl/internal/trace"
	"govhdl/internal/vtime"
)

func sampleFile(round uint64) *File {
	return &File{
		Ckpt: &pdes.Checkpoint{
			Format:  3,
			GVT:     vtime.VT{PT: vtime.Time(round) * 10, LT: 0},
			Round:   round,
			Workers: 2,
			NumLPs:  3,
			Modes:   []pdes.Mode{pdes.Conservative, pdes.Optimistic, pdes.Conservative},
			Blobs:   [][]byte{nil, []byte("worker-1"), []byte("worker-2")},
		},
		Trace: []trace.Entry{
			{LP: 0, TS: vtime.VT{PT: 1}, Item: round},
			{LP: 1, TS: vtime.VT{PT: 2, LT: 3}, Item: int64(-2)},
		},
		Shards:    2,
		Partition: "bfs",
	}
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.gvcp")
	want := sampleFile(7)
	if err := Write(path, 3, want); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(path)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round-trip mismatch:\n got %+v / %+v\nwant %+v / %+v", got, got.Ckpt, want, want.Ckpt)
	}
}

// frame wraps payload in a header that verifies, so a test reaches the
// payload decoder with bytes of its choosing.
func frame(version uint32, payload []byte) []byte {
	b := make([]byte, headerLen, headerLen+len(payload))
	copy(b, Magic)
	binary.BigEndian.PutUint32(b[4:8], version)
	binary.BigEndian.PutUint64(b[8:16], uint64(len(payload)))
	sum := sha256.Sum256(payload)
	copy(b[16:], sum[:])
	return append(b, payload...)
}

// allocDelta reports the bytes fn allocated.
func allocDelta(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDecodeRejectsOtherVersions: an image of another frame version — version
// 1 carried a gob payload — is refused at the version field whatever its
// payload holds; there is no fallback reader.
func TestDecodeRejectsOtherVersions(t *testing.T) {
	for _, v := range []uint32{0, 1, 3} {
		_, err := Decode(bytes.NewReader(frame(v, []byte("any payload"))), "old.gvcp")
		var pe *Error
		if !errors.As(err, &pe) || pe.Offset != 4 || !strings.Contains(pe.Reason, "frame version") {
			t.Errorf("version %d: got %v, want a version error positioned at byte 4", v, err)
		}
	}
}

// TestDecodeLyingLength: a header may claim any payload length up to
// maxPayload; the reader allocates what the stream delivers, not what the
// header claims.
func TestDecodeLyingLength(t *testing.T) {
	hdr := frame(Version, nil)
	binary.BigEndian.PutUint64(hdr[8:16], maxPayload)
	var err error
	got := allocDelta(func() { _, err = Decode(bytes.NewReader(hdr), "liar.gvcp") })
	if err == nil || !strings.Contains(err.Error(), "torn payload (0 of 4294967296 bytes)") {
		t.Fatalf("got %v, want the torn-payload error", err)
	}
	if got > 1<<20 {
		t.Fatalf("a %d-byte file made Decode allocate %d bytes", len(hdr), got)
	}
}

// TestDecodeRejectsLyingCounts: inside a frame that verifies, a count that
// claims more elements than bytes remain is refused before the slice it
// would size exists.
func TestDecodeRejectsLyingCounts(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<40)
	prefix := []byte{0, 0} // Shards 0, Partition ""
	// has-checkpoint, Format 2, GVT 0/0, Round 0, Workers 2, NumLPs 3
	ckpt := append(append([]byte{}, prefix...), 1, 4, 0, 0, 0, 4, 6)
	cases := map[string][]byte{
		"modes":  append(append([]byte{}, ckpt...), huge...),
		"blobs":  append(append(append([]byte{}, ckpt...), 0), huge...),
		"blob":   append(append(append([]byte{}, ckpt...), 0, 2), huge...),
		"trace":  append(append(append([]byte{}, prefix...), 0), huge...),
		"string": append([]byte{0}, huge...),
	}
	for name, payload := range cases {
		var err error
		got := allocDelta(func() { _, err = Decode(bytes.NewReader(frame(Version, payload)), "counts.gvcp") })
		var pe *Error
		if !errors.As(err, &pe) || pe.Reason != "payload decode" {
			t.Errorf("%s: got %v, want a payload decode error", name, err)
		}
		if got > 64<<10 {
			t.Errorf("%s: a %d-byte payload made Decode allocate %d bytes", name, len(payload), got)
		}
	}
	// The frame layer is not what refused them: the same prefix decodes.
	ok := append(append([]byte{}, ckpt...), 0, 0, 0)
	if _, err := Decode(bytes.NewReader(frame(Version, ok)), "counts.gvcp"); err != nil {
		t.Fatalf("well-formed minimal payload rejected: %v", err)
	}
	if _, err := Decode(bytes.NewReader(frame(Version, append(ok, 0))), "counts.gvcp"); err == nil {
		t.Fatal("trailing payload byte accepted")
	}
}

// TestEncodeRejectsUntaggedItem: a trace item without a wire tag fails the
// write, naming the Go type, instead of producing an image nobody can read.
func TestEncodeRejectsUntaggedItem(t *testing.T) {
	f := sampleFile(1)
	f.Trace[1].Item = struct{ X int }{3}
	err := Encode(new(bytes.Buffer), f)
	if err == nil || !strings.Contains(err.Error(), "struct { X int }") || !strings.Contains(err.Error(), "trace entry 1") {
		t.Fatalf("got %v, want an error naming the entry and the type", err)
	}
}

// FuzzDecode throws bytes at both layers of the reader: as a whole file (the
// header checks) and as the payload of a frame that verifies (the bounded
// payload decoder). Any error is fine. A panic is a failure; so is
// allocating more than a constant multiple of the input, and so is an image
// that decodes but does not survive its own re-encoding.
func FuzzDecode(f *testing.F) {
	var buf bytes.Buffer
	if err := Encode(&buf, sampleFile(3)); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	f.Add(good)
	f.Add(good[headerLen:])
	f.Add(good[:headerLen+7])
	f.Add(good[headerLen : len(good)-3])
	flipped := append([]byte(nil), good[headerLen:]...)
	flipped[4] ^= 0x20
	f.Add(flipped)
	f.Add(append([]byte{0, 0, 0}, binary.AppendUvarint(nil, 1<<40)...)) // a trace count far beyond the input
	lying := append([]byte(nil), good[:headerLen]...)
	binary.BigEndian.PutUint64(lying[8:16], maxPayload)
	f.Add(lying)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 { // the sample is ~110 bytes; longer inputs only feed the quadratic minimizer
			return
		}
		for _, file := range [][]byte{data, frame(Version, data)} {
			var got *File
			var err error
			// 64 bytes of slice headers per input byte is the worst honest
			// ratio (one-byte blobs); the constant covers the read buffer.
			if n, limit := allocDelta(func() { got, err = Decode(bytes.NewReader(file), "fuzz") }), uint64(128*len(file)+64<<10); n > limit {
				t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(file), n, limit)
			}
			if err != nil {
				var pe *Error
				if !errors.As(err, &pe) {
					t.Fatalf("error is not positioned: %v", err)
				}
				continue
			}
			var again bytes.Buffer
			if err := Encode(&again, got); err != nil {
				t.Fatalf("decoded image does not re-encode: %v", err)
			}
			back, err := Decode(&again, "fuzz")
			if err != nil || !reflect.DeepEqual(back, got) {
				t.Fatalf("decoded image does not survive re-encoding (%v):\n got %+v\nwant %+v", err, back, got)
			}
		}
	})
}

// Every kind of damage must be rejected with a positioned *Error, never a
// decode of garbage.
func TestDecodeRejectsDamage(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, sampleFile(1)); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	good := buf.Bytes()

	cases := []struct {
		name   string
		mutate func([]byte) []byte
		want   string // substring of the error
	}{
		{"empty", func(b []byte) []byte { return nil }, "truncated header"},
		{"short header", func(b []byte) []byte { return b[:10] }, "truncated header"},
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }, "bad magic"},
		{"version 1", func(b []byte) []byte { b[7] = 1; return b }, "frame version 1, want 2"},
		{"bad version", func(b []byte) []byte { b[7] = 99; return b }, "frame version 99"},
		{"torn payload", func(b []byte) []byte { return b[:len(b)-5] }, "torn payload"},
		{"flipped bit", func(b []byte) []byte { b[len(b)-1] ^= 0x40; return b }, "sha256"},
		{"flipped early byte", func(b []byte) []byte { b[headerLen+2] ^= 0x01; return b }, "sha256"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mutate(append([]byte(nil), good...))
			_, err := Decode(bytes.NewReader(b), "test.gvcp")
			if err == nil {
				t.Fatalf("damage accepted")
			}
			var pe *Error
			if !errors.As(err, &pe) {
				t.Fatalf("error is not *ckptio.Error: %v", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			if !strings.Contains(err.Error(), "test.gvcp") {
				t.Fatalf("error %q does not name the file", err)
			}
		})
	}
}

func TestGenerationRotation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.gvcp")
	for round := uint64(1); round <= 5; round++ {
		if err := Write(path, 3, sampleFile(round)); err != nil {
			t.Fatalf("Write round %d: %v", round, err)
		}
	}
	// keep=3: rounds 5, 4, 3 survive as gen 0, 1, 2; older are gone.
	for n, wantRound := range []uint64{5, 4, 3} {
		f, err := Read(GenPath(path, n))
		if err != nil {
			t.Fatalf("gen %d: %v", n, err)
		}
		if f.Ckpt.Round != wantRound {
			t.Fatalf("gen %d holds round %d, want %d", n, f.Ckpt.Round, wantRound)
		}
	}
	if _, err := os.Stat(GenPath(path, 3)); !os.IsNotExist(err) {
		t.Fatalf("generation past keep bound still exists")
	}
}

func TestRecoverFallsBackToVerifiableGeneration(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.gvcp")
	for round := uint64(1); round <= 3; round++ {
		if err := Write(path, 3, sampleFile(round)); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	// Corrupt the newest generation: flip a payload byte.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-3] ^= 0x10
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	f, gen, skipped, err := Recover(path)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if gen != GenPath(path, 1) {
		t.Fatalf("recovered from %s, want generation 1", gen)
	}
	if f.Ckpt.Round != 2 {
		t.Fatalf("recovered round %d, want 2 (previous generation)", f.Ckpt.Round)
	}
	if len(skipped) != 1 || !strings.Contains(skipped[0].Error(), "sha256") {
		t.Fatalf("skipped = %v, want one sha256 failure", skipped)
	}
}

func TestRecoverAllCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.gvcp")
	for round := uint64(1); round <= 2; round++ {
		if err := Write(path, 2, sampleFile(round)); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	for n := 0; n < 2; n++ {
		p := GenPath(path, n)
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		b[headerLen] ^= 0xff
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, _, _, err := Recover(path)
	if err == nil {
		t.Fatalf("Recover accepted a fully corrupt lineage")
	}
	if !strings.Contains(err.Error(), "no verifiable generation") {
		t.Fatalf("error %q does not diagnose the lineage", err)
	}
}

func TestRecoverMissing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "absent.gvcp")
	_, _, _, err := Recover(path)
	if !os.IsNotExist(err) {
		t.Fatalf("want IsNotExist for a missing lineage, got %v", err)
	}
}

// The faultinject corrupt-checkpoint-bytes mode must defeat verification and
// the lineage must then fall back — the unit-level form of the chaos
// checkpoint-churn leg.
func TestRecoverAfterFaultinjectCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.gvcp")
	for round := uint64(1); round <= 2; round++ {
		if err := Write(path, 2, sampleFile(round)); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	if err := faultinject.CorruptFile(path, 42, headerLen, 8); err != nil {
		t.Fatalf("CorruptFile: %v", err)
	}
	f, gen, skipped, err := Recover(path)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if gen != GenPath(path, 1) || f.Ckpt.Round != 1 {
		t.Fatalf("recovered gen=%s round=%d, want previous generation round 1", gen, f.Ckpt.Round)
	}
	if len(skipped) != 1 {
		t.Fatalf("skipped %d generations, want 1", len(skipped))
	}
}
