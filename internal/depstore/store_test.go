package depstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func openT(t *testing.T) *Store {
	t.Helper()
	s, err := OpenWith(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := openT(t)
	payload := []byte(`{"hello":"world"}`)
	if err := s.Put(KindTaint, Key("comp", "sig"), payload); err != nil {
		t.Fatalf("put: %v", err)
	}
	got, ok := s.Get(KindTaint, Key("comp", "sig"))
	if !ok || string(got) != string(payload) {
		t.Fatalf("get = %q, %v", got, ok)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 0 || st.Writes != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestGetAbsentIsMiss(t *testing.T) {
	s := openT(t)
	if _, ok := s.Get(KindTaint, Key("nope")); ok {
		t.Fatal("absent key reported present")
	}
	if st := s.Stats(); st.Misses != 1 || st.Invalidations != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestKeyDiscriminates(t *testing.T) {
	if Key("ab", "c") == Key("a", "bc") {
		t.Error("length prefixing broken: concatenation collision")
	}
	if Key("a") == Key("a", "") {
		t.Error("arity not part of the address")
	}
	if Key("x") != Key("x") {
		t.Error("key not deterministic")
	}
}

func TestKindsDoNotCollide(t *testing.T) {
	s := openT(t)
	k := Key("same")
	if err := s.Put(KindTaint, k, []byte(`"t"`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(KindScenario, k, []byte(`"s"`)); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(KindTaint, k)
	if !ok || string(got) != `"t"` {
		t.Errorf("taint record = %q, %v", got, ok)
	}
	got, ok = s.Get(KindScenario, k)
	if !ok || string(got) != `"s"` {
		t.Errorf("scenario record = %q, %v", got, ok)
	}
}

// corruptRecord overwrites the stored record file with raw bytes,
// creating the shard directories if no Put has made them yet.
func corruptRecord(t *testing.T, s *Store, kind, key string, raw []byte) {
	t.Helper()
	p := s.path(kind, key)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptRecordRefusedNotFatal(t *testing.T) {
	cases := map[string][]byte{
		"garbage":       []byte("not json at all"),
		"truncated":     nil, // filled below from a real record
		"empty":         {},
		"wrong-sum":     nil, // filled below
		"null-envelope": []byte("null"),
	}
	s := openT(t)
	k := Key("victim")
	if err := s.Put(KindTaint, k, []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(s.path(KindTaint, k))
	if err != nil {
		t.Fatal(err)
	}
	cases["truncated"] = whole[:len(whole)/2]
	nl := bytes.IndexByte(whole, '\n')
	if nl < 0 {
		t.Fatal("record has no header line")
	}
	// Keep the header (and its Sum) but swap the payload bytes.
	tampered := append([]byte{}, whole[:nl+1]...)
	tampered = append(tampered, []byte(`{"v":2}`)...)
	cases["wrong-sum"] = tampered
	cases["headerless"] = whole[nl+1:] // payload with no header line

	for name, raw := range cases {
		t.Run(name, func(t *testing.T) {
			s := openT(t)
			k := Key("victim")
			if err := s.Put(KindTaint, k, []byte(`{"v":1}`)); err != nil {
				t.Fatal(err)
			}
			corruptRecord(t, s, KindTaint, k, raw)
			if _, ok := s.Get(KindTaint, k); ok {
				t.Fatal("corrupt record served as a hit")
			}
			st := s.Stats()
			if st.Invalidations != 1 || st.Misses != 1 {
				t.Errorf("stats = %+v, want 1 invalidation counted as a miss", st)
			}
		})
	}
}

func TestVersionMismatchIgnoredNotFatal(t *testing.T) {
	s := openT(t)
	k := Key("versioned")
	payload := []byte(`{"v":1}`)
	env := envelope{
		Format: formatVersion + 1,
		Kind:   KindTaint,
		Sum:    payloadSum(payload),
	}
	header, err := json.Marshal(&env)
	if err != nil {
		t.Fatal(err)
	}
	blob := append(append(header, '\n'), payload...)
	corruptRecord(t, s, KindTaint, k, blob)
	if _, ok := s.Get(KindTaint, k); ok {
		t.Fatal("future-format record served as a hit")
	}
	if st := s.Stats(); st.Invalidations != 1 {
		t.Errorf("stats = %+v, want the version skew counted", st)
	}
}

func TestKindMismatchRefused(t *testing.T) {
	s := openT(t)
	k := Key("mislabeled")
	if err := s.Put(KindScenario, k, []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	// A scenario record renamed into a taint record's path must not be
	// served as taint data.
	dst := s.path(KindTaint, k)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(s.path(KindScenario, k), dst); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(KindTaint, k); ok {
		t.Fatal("record of the wrong kind served as a hit")
	}
}

func TestOpenRejectsUnusableDir(t *testing.T) {
	// A path whose parent is a regular file cannot become a directory;
	// OpenWith must fail loudly so cliutil can fall back to cold extraction
	// with a note. (chmod-based permission checks are useless under
	// root, which CI may run as.)
	base := t.TempDir()
	file := filepath.Join(base, "plainfile")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenWith(Options{Dir: filepath.Join(file, "sub")}); err == nil {
		t.Fatal("Open under a regular file succeeded")
	}
	// Neither tier: the error must name that fault, not blame a
	// directory nobody passed.
	if _, err := OpenWith(Options{}); err == nil || !strings.Contains(err.Error(), "no tier configured") {
		t.Fatalf("OpenWith with no tier = %v, want a no-tier-configured error", err)
	}
}

func TestConcurrentSharedDir(t *testing.T) {
	// Many writers and readers on one directory, overlapping keys: every
	// successful Get must observe a complete, checksum-valid record
	// (atomic rename), and nothing may panic or corrupt the store.
	dir := t.TempDir()
	const workers = 8
	const keys = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s, err := OpenWith(Options{Dir: dir}) // each worker models its own process
			if err != nil {
				t.Errorf("open: %v", err)
				return
			}
			for i := 0; i < 50; i++ {
				k := Key(fmt.Sprintf("key-%d", i%keys))
				payload := []byte(fmt.Sprintf(`{"k":%d,"pad":%q}`, i%keys, strings.Repeat("a", 256)))
				if err := s.Put(KindTaint, k, payload); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				if got, ok := s.Get(KindTaint, k); ok {
					var v struct {
						K int `json:"k"`
					}
					if err := json.Unmarshal(got, &v); err != nil || v.K != i%keys {
						t.Errorf("torn or foreign record under %s: %v %q", k, err, got)
						return
					}
				}
			}
			if st := s.Stats(); st.Invalidations != 0 {
				t.Errorf("worker %d saw %d invalidations under concurrent writes", w, st.Invalidations)
			}
		}(w)
	}
	wg.Wait()
}
