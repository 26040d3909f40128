package depstore

import (
	"bytes"
	"os"
	"testing"
)

// FuzzRecordDecode drives the one record decoder with arbitrary bytes.
// It must never panic; Get must serve a record file exactly when Scrub
// judges it valid, and then serve exactly the decoded payload; and
// every record localPut writes must decode back to its payload.
func FuzzRecordDecode(f *testing.F) {
	s, err := OpenWith(Options{Dir: f.TempDir(), NoSync: true})
	if err != nil {
		f.Fatal(err)
	}
	key := Key("fuzz")
	path := s.path(KindTaint, key)
	// Seeds: a valid record plus each refusal class.
	if err := s.localPut(KindTaint, key, []byte(`{"v":1}`)); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	nl := bytes.IndexByte(valid, '\n')
	f.Add(valid)
	f.Add(valid[:nl/2])                                                        // torn header
	f.Add(append(append([]byte{}, valid[:nl+1]...), `{"v":2}`...))             // checksum mismatch
	f.Add(bytes.Replace(valid, []byte(`"format":2`), []byte(`"format":1`), 1)) // version skew
	f.Add(bytes.Replace(valid, []byte(`"taint"`), []byte(`"scenario"`), 1))    // kind mismatch
	f.Add([]byte("{}\n"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		want, verdict := decodeRecord(data, KindTaint)
		if (verdict == recordOK) != (want != nil) {
			t.Fatalf("verdict %d with payload %v", verdict, want != nil)
		}

		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		scrubOK := s.validateRecord(path) == recordOK
		got, served := s.localGet(KindTaint, key)
		if served != scrubOK {
			t.Fatalf("Get served=%v but Scrub valid=%v for %q", served, scrubOK, data)
		}
		if served && !bytes.Equal(got, want) {
			t.Fatalf("Get served %q, decoder says %q", got, want)
		}

		if err := s.localPut(KindTaint, key, data); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if payload, v := decodeRecord(raw, KindTaint); v != recordOK || !bytes.Equal(payload, data) {
			t.Fatalf("localPut record decodes to %q (verdict %d), want %q", payload, v, data)
		}
	})
}
