package wire

import (
	"bytes"
	"compress/gzip"
	"errors"
	"runtime"
	"strings"
	"testing"
)

func sampleRecords() []Record {
	return []Record{
		{Kind: "taint", Key: "aabbccdd", Payload: []byte(`{"v":1}`)},
		{Kind: "scenario", Key: "deadbeef", Payload: []byte{}},
		{Kind: "summaries", Key: "0123456789abcdef", Missing: true},
		{Kind: "taint", Key: "ffeeddcc", Payload: bytes.Repeat([]byte{0x5a}, 4096)},
	}
}

func roundTrip(t *testing.T, recs []Record) []Record {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, recs); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := ReadAll(&buf, 0)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	return got
}

func TestRoundTrip(t *testing.T) {
	recs := sampleRecords()
	got := roundTrip(t, recs)
	if len(got) != len(recs) {
		t.Fatalf("records = %d, want %d", len(got), len(recs))
	}
	for i, rec := range recs {
		g := got[i]
		if g.Kind != rec.Kind || g.Key != rec.Key || g.Missing != rec.Missing {
			t.Fatalf("record %d = %+v, want %+v", i, g, rec)
		}
		if !rec.Missing && !bytes.Equal(g.Payload, rec.Payload) {
			t.Fatalf("record %d payload mismatch: %d vs %d bytes", i, len(g.Payload), len(rec.Payload))
		}
	}
}

func TestEmptyBatch(t *testing.T) {
	if got := roundTrip(t, nil); len(got) != 0 {
		t.Fatalf("empty batch decoded to %d records", len(got))
	}
}

// TestGzipTransparent pins that compression is a pure transport layer:
// the framed bytes survive a gzip round trip unchanged.
func TestGzipTransparent(t *testing.T) {
	recs := sampleRecords()
	var plain bytes.Buffer
	if err := Write(&plain, recs); err != nil {
		t.Fatal(err)
	}
	var zipped bytes.Buffer
	gz := gzip.NewWriter(&zipped)
	if err := Write(gz, recs); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	gr, err := gzip.NewReader(&zipped)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(gr, 0)
	if err != nil {
		t.Fatalf("ReadAll over gzip: %v", err)
	}
	if len(got) != len(recs) {
		t.Fatalf("records = %d, want %d", len(got), len(recs))
	}
}

// TestTruncationRefused cuts a valid stream at every byte offset: each
// prefix must be refused as truncated (or corrupt where the cut lands
// on the trailer bytes) — never parsed into records.
func TestTruncationRefused(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sampleRecords()); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut++ {
		if _, err := ReadAll(bytes.NewReader(full[:cut]), 0); err == nil {
			t.Fatalf("truncation at %d/%d bytes parsed cleanly", cut, len(full))
		} else if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at %d: unexpected error class %v", cut, err)
		}
	}
}

// TestCorruptionRefused flips every byte of a valid stream in turn:
// every mutation must surface as a typed refusal or change the decoded
// bytes is impossible — the per-frame checksum catches payload damage,
// the structure checks catch the rest.
func TestCorruptionRefused(t *testing.T) {
	recs := []Record{
		{Kind: "taint", Key: "aabbccdd", Payload: []byte(`{"v":1,"w":[2,3]}`)},
		{Kind: "scenario", Key: "deadbeef", Payload: []byte(`{"deps":[]}`)},
	}
	var buf bytes.Buffer
	if err := Write(&buf, recs); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	refused := 0
	for i := range full {
		mut := append([]byte(nil), full...)
		mut[i] ^= 0xff
		got, err := ReadAll(bytes.NewReader(mut), 0)
		if err != nil {
			refused++
			continue
		}
		// A mutation that still parses may only have touched the kind/key
		// reference bytes (their integrity is the addressing layer's
		// concern); the payloads must be untouched.
		for j, g := range got {
			if !g.Missing && !bytes.Equal(g.Payload, recs[j].Payload) {
				t.Fatalf("flip at byte %d delivered a wrong payload", i)
			}
		}
	}
	if refused == 0 {
		t.Fatal("no mutation was refused — the checksums are not being checked")
	}
}

func TestGarbageRefused(t *testing.T) {
	for _, src := range []string{
		"",
		"FSB1",
		"not a stream at all",
		"<html>502 Bad Gateway</html>",
	} {
		if _, err := ReadAll(strings.NewReader(src), 0); err == nil {
			t.Fatalf("garbage %q parsed cleanly", src)
		}
	}
}

func TestTrailingGarbageRefused(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sampleRecords()); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("x")
	if _, err := ReadAll(&buf, 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing garbage: err = %v, want ErrCorrupt", err)
	}
}

func TestPayloadBound(t *testing.T) {
	recs := []Record{{Kind: "taint", Key: "aabbccdd", Payload: bytes.Repeat([]byte{1}, 100)}}
	var buf bytes.Buffer
	if err := Write(&buf, recs); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadAll(bytes.NewReader(buf.Bytes()), 99); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("over-budget batch: err = %v, want ErrCorrupt", err)
	}
	if _, err := ReadAll(bytes.NewReader(buf.Bytes()), 100); err != nil {
		t.Fatalf("at-budget batch refused: %v", err)
	}
}

func TestCountMismatchRefused(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, sampleRecords()); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Bump the declared count: the stream now ends one frame early.
	full[7]++
	if _, err := ReadAll(bytes.NewReader(full), 0); err == nil {
		t.Fatal("count overshoot parsed cleanly")
	}
}

// allocDuring returns the bytes f allocated.
func allocDuring(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDeclaredSizesDoNotAllocate: a stream's declared record count and
// payload length are claims by whoever sent it. Two short streams whose
// claims once allocated 64 MiB each must fail as truncated after
// allocating little.
func TestDeclaredSizesDoNotAllocate(t *testing.T) {
	for _, tc := range []struct {
		name   string
		stream []byte
	}{
		// MaxRecords records declared, none sent.
		{"count", []byte("FSB1\x00\x10\x00\x00")},
		// One present frame declaring a MaxPayload payload, none sent.
		{"payload", []byte("FSB1\x00\x00\x00\x01" + "\x01\x01\x00\x01" + "\x04\x00\x00\x00" + "tk")},
	} {
		var err error
		alloc := allocDuring(func() { _, err = ReadAll(bytes.NewReader(tc.stream), 0) })
		if !errors.Is(err, ErrTruncated) {
			t.Errorf("%s: err = %v, want ErrTruncated", tc.name, err)
		}
		if alloc >= 1<<20 {
			t.Errorf("%s: %d-byte stream allocated %d bytes, budget 1 MiB", tc.name, len(tc.stream), alloc)
		}
	}
}

// TestPayloadBoundCheckedBeforeRead: a payload that would cross the
// cumulative bound is refused from its declared length, before any of
// it is read.
func TestPayloadBoundCheckedBeforeRead(t *testing.T) {
	stream := []byte("FSB1\x00\x00\x00\x01" + "\x01\x01\x00\x01" + "\x00\x00\x01\x00" + "tk")
	if _, err := ReadAll(bytes.NewReader(stream), 255); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("over-budget declared payload: err = %v, want ErrCorrupt", err)
	}
}

// TestLargePayloadRoundTrip crosses readChunk, so readBody grows its
// buffer several times.
func TestLargePayloadRoundTrip(t *testing.T) {
	payload := make([]byte, 5*readChunk+17)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	got := roundTrip(t, []Record{{Kind: "taint", Key: "aabbccdd", Payload: payload}})
	if len(got) != 1 || !bytes.Equal(got[0].Payload, payload) || cap(got[0].Payload) != len(payload) {
		t.Fatalf("large payload did not round-trip (%d records)", len(got))
	}
}
