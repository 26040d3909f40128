package depstore

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeRemote is an in-memory depstore.Remote for tiering tests.
type fakeRemote struct {
	mu   sync.Mutex
	recs map[string][]byte
	gets int // BatchGet calls
	puts int // records offered to BatchPut
	// failPuts, when set, fails every BatchPut.
	failPuts bool
}

func newFakeRemote() *fakeRemote {
	return &fakeRemote{recs: make(map[string][]byte)}
}

func (f *fakeRemote) BatchGet(refs []Ref) (map[Ref][]byte, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.gets++
	out := make(map[Ref][]byte)
	for _, ref := range refs {
		if p, ok := f.recs[ref.Kind+"/"+ref.Key]; ok {
			out[ref] = p
		}
	}
	return out, true
}

func (f *fakeRemote) BatchPut(recs []BatchRecord) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.puts += len(recs)
	if f.failPuts {
		return false
	}
	for _, rec := range recs {
		f.recs[rec.Kind+"/"+rec.Key] = append([]byte(nil), rec.Payload...)
	}
	return true
}

func TestPutUsesShardedLayout(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenWith(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	k := Key("sharded")
	if err := s.Put(KindTaint, k, []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	want := filepath.Join(dir, KindTaint, k[:2], k[2:4], k+".rec")
	if _, err := os.Stat(want); err != nil {
		t.Errorf("record not at sharded path %s: %v", want, err)
	}
}

func TestGetRefreshesMtime(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenWith(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	k := Key("touched")
	if err := s.Put(KindTaint, k, []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	past := time.Now().Add(-24 * time.Hour)
	p := s.path(KindTaint, k)
	if err := os.Chtimes(p, past, past); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(KindTaint, k); !ok {
		t.Fatal("record vanished")
	}
	info, err := os.Stat(p)
	if err != nil {
		t.Fatal(err)
	}
	if !info.ModTime().After(past.Add(time.Hour)) {
		t.Errorf("hit did not refresh mtime: still %v", info.ModTime())
	}
}

// ageRecords stamps each of the store's records with a distinct,
// increasing mtime in the given path order.
func ageRecords(t *testing.T, paths []string, base time.Time) {
	t.Helper()
	for i, p := range paths {
		ts := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(p, ts, ts); err != nil {
			t.Fatal(err)
		}
	}
}

func TestEvictDropsLeastRecentlyUsed(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenWith(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte(`{"filler":"xxxxxxxxxxxxxxxx"}`)
	var keys []string
	for i := 0; i < 4; i++ {
		k := Key(fmt.Sprintf("rec-%d", i))
		keys = append(keys, k)
		if err := s.Put(KindTaint, k, payload); err != nil {
			t.Fatal(err)
		}
	}
	paths := make([]string, len(keys))
	for i, k := range keys {
		paths[i] = s.path(KindTaint, k)
	}
	ageRecords(t, paths, time.Now().Add(-time.Hour))

	info, err := os.Stat(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	// Budget for exactly two records: the two oldest must go.
	n, err := s.Evict(2 * info.Size())
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("evicted %d records, want 2", n)
	}
	for i, p := range paths {
		_, err := os.Stat(p)
		if i < 2 && !os.IsNotExist(err) {
			t.Errorf("old record %d survived eviction", i)
		}
		if i >= 2 && err != nil {
			t.Errorf("recent record %d evicted: %v", i, err)
		}
	}
	if st := s.Stats(); st.Evictions != 2 {
		t.Errorf("stats = %+v, want 2 evictions", st)
	}
}

func TestEvictTieBreaksByPath(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenWith(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte(`{"v":1}`)
	var paths []string
	for i := 0; i < 4; i++ {
		k := Key(fmt.Sprintf("tie-%d", i))
		if err := s.Put(KindTaint, k, payload); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, s.path(KindTaint, k))
	}
	// Identical mtimes: eviction order must be pure path order.
	ts := time.Now().Add(-time.Hour)
	for _, p := range paths {
		if err := os.Chtimes(p, ts, ts); err != nil {
			t.Fatal(err)
		}
	}
	info, err := os.Stat(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Evict(2 * info.Size()); err != nil {
		t.Fatal(err)
	}
	var survivors []string
	for _, p := range paths {
		if _, err := os.Stat(p); err == nil {
			survivors = append(survivors, p)
		}
	}
	if len(survivors) != 2 {
		t.Fatalf("%d survivors, want 2", len(survivors))
	}
	// The survivors must be the two lexicographically largest paths.
	all := append([]string(nil), paths...)
	for _, sv := range survivors {
		bigger := 0
		for _, p := range all {
			if p > sv {
				bigger++
			}
		}
		if bigger > 1 {
			t.Errorf("survivor %s is not among the two largest paths", sv)
		}
	}
}

func TestEvictNoopsUnderBudgetAndRemoteOnly(t *testing.T) {
	s := openT(t)
	if err := s.Put(KindTaint, Key("small"), []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	if n, err := s.Evict(1 << 30); err != nil || n != 0 {
		t.Errorf("under-budget evict = %d, %v", n, err)
	}
	ro, err := OpenWith(Options{Remote: newFakeRemote()})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := ro.Evict(1); err != nil || n != 0 {
		t.Errorf("remote-only evict = %d, %v", n, err)
	}
}

func TestTieredRemoteFallThroughAndWriteBack(t *testing.T) {
	rem := newFakeRemote()
	k := Key("warm-elsewhere")
	payload := []byte(`{"from":"daemon"}`)
	rem.recs[KindScenario+"/"+k] = payload

	s, err := OpenWith(Options{Dir: t.TempDir(), Remote: rem})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(KindScenario, k)
	if !ok || string(got) != string(payload) {
		t.Fatalf("remote record not served: %q, %v", got, ok)
	}
	st := s.Stats()
	if st.RemoteHits != 1 || st.Hits != 0 || st.Misses != 0 {
		t.Errorf("stats after remote hit = %+v", st)
	}
	// The hit must have been written back: the next Get is local and the
	// remote is not consulted again.
	gets := rem.gets
	if _, ok := s.Get(KindScenario, k); !ok {
		t.Fatal("written-back record missing")
	}
	if rem.gets != gets {
		t.Error("second Get consulted the remote despite local write-back")
	}
	if st := s.Stats(); st.Hits != 1 {
		t.Errorf("stats after write-back = %+v", st)
	}
}

func TestTieredPutWarmsRemote(t *testing.T) {
	rem := newFakeRemote()
	s, err := OpenWith(Options{Dir: t.TempDir(), Remote: rem})
	if err != nil {
		t.Fatal(err)
	}
	k := Key("pushed")
	if err := s.Put(KindTaint, k, []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	// The disk tier answers read-after-write, so the push waits for the
	// run's flush.
	if rem.puts != 0 {
		t.Errorf("remote saw %d puts before the flush, want 0", rem.puts)
	}
	s.FlushRemote()
	if rem.puts != 1 {
		t.Errorf("remote saw %d puts, want 1", rem.puts)
	}
	if st := s.Stats(); st.Writes != 1 || st.RemoteWrites != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestDeferredPutsFlushAtThreshold: deferred pushes leave in batches of
// putFlushThreshold, and FlushRemote sends the remainder.
func TestDeferredPutsFlushAtThreshold(t *testing.T) {
	rem := newFakeRemote()
	s, err := OpenWith(Options{Remote: rem, HotRecords: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < putFlushThreshold+3; i++ {
		if err := s.Put(KindTaint, Key(fmt.Sprint("deferred-", i)), []byte(`{"v":1}`)); err != nil {
			t.Fatal(err)
		}
	}
	if rem.puts != putFlushThreshold {
		t.Errorf("remote saw %d puts before the flush, want %d", rem.puts, putFlushThreshold)
	}
	s.FlushRemote()
	if st := s.Stats(); rem.puts != putFlushThreshold+3 || st.RemoteWrites != putFlushThreshold+3 || st.RemoteErrors != 0 {
		t.Errorf("after flush: remote saw %d puts, stats = %+v", rem.puts, st)
	}
}

// TestPrefetchProvesAbsence: a ref the prefetch found missing answers
// its later Get as a miss without another remote call, until a Put
// makes it present.
func TestPrefetchProvesAbsence(t *testing.T) {
	rem := newFakeRemote()
	have, absent := Ref{KindTaint, Key("have")}, Ref{KindTaint, Key("absent")}
	rem.recs[have.Kind+"/"+have.Key] = []byte(`{"v":1}`)
	s, err := OpenWith(Options{Remote: rem, HotRecords: 8})
	if err != nil {
		t.Fatal(err)
	}
	s.Prefetch([]Ref{have, absent})
	if rem.gets != 1 {
		t.Fatalf("prefetch made %d remote calls, want 1", rem.gets)
	}
	if _, ok := s.Get(have.Kind, have.Key); !ok {
		t.Fatal("prefetched record missing")
	}
	if _, ok := s.Get(absent.Kind, absent.Key); ok {
		t.Fatal("absent record reported present")
	}
	if rem.gets != 1 {
		t.Errorf("Gets after the prefetch made %d remote calls, want 0", rem.gets-1)
	}
	st := s.Stats()
	if st.Prefetched != 1 || st.RemoteHits != 1 || st.HotHits != 1 || st.RemoteMisses != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
	if err := s.Put(absent.Kind, absent.Key, []byte(`{"v":2}`)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(absent.Kind, absent.Key); !ok {
		t.Error("record written after the prefetch still reads as absent")
	}
}

func TestTieredRemotePutErrorIsNotFatal(t *testing.T) {
	rem := newFakeRemote()
	rem.failPuts = true
	s, err := OpenWith(Options{Dir: t.TempDir(), Remote: rem})
	if err != nil {
		t.Fatal(err)
	}
	// With a local tier the remote failure is counted, not returned: the
	// local write succeeded and the cache contract holds.
	for _, name := range []string{"local-ok", "local-too"} {
		if err := s.Put(KindTaint, Key(name), []byte(`{"v":1}`)); err != nil {
			t.Fatalf("put with failing remote errored: %v", err)
		}
	}
	s.FlushRemote()
	if st := s.Stats(); st.RemoteErrors != 2 || st.RemoteWrites != 0 || st.Writes != 2 {
		t.Errorf("stats = %+v, want both records of the failed batch counted as remote errors", st)
	}
	for _, name := range []string{"local-ok", "local-too"} {
		if _, ok := s.Get(KindTaint, Key(name)); !ok {
			t.Errorf("record %s left the local tier after the failed batch", name)
		}
	}
}

func TestRemoteOnlyStore(t *testing.T) {
	rem := newFakeRemote()
	s, err := OpenWith(Options{Remote: rem})
	if err != nil {
		t.Fatal(err)
	}
	if s.HasLocal() || !s.HasRemote() {
		t.Fatalf("tiers: local=%v remote=%v", s.HasLocal(), s.HasRemote())
	}
	k := Key("remote-only")
	payload := []byte(`{"v":1}`)
	if err := s.Put(KindTaint, k, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(KindTaint, k)
	if !ok || string(got) != string(payload) {
		t.Fatalf("get = %q, %v", got, ok)
	}
	if _, ok := s.Get(KindTaint, Key("absent")); ok {
		t.Fatal("absent key reported present")
	}
	st := s.Stats()
	if st.RemoteHits != 1 || st.RemoteMisses != 1 || st.Misses != 1 || st.RemoteWrites != 1 {
		t.Errorf("stats = %+v", st)
	}
	// Remote-only has no disk to fall back on, so a Put failure must
	// surface.
	rem.failPuts = true
	if err := s.Put(KindTaint, Key("lost"), payload); err == nil {
		t.Error("remote-only put swallowed the remote failure")
	}
}

func TestListRecordsFiltersByKind(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenWith(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{Key("one"), Key("two")} {
		if err := s.Put(KindTaint, k, []byte(`{"v":1}`)); err != nil {
			t.Fatal(err)
		}
	}
	// A different kind must not leak into the listing.
	if err := s.Put(KindScenario, Key("other"), []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	got, err := ListRecords(dir, KindTaint)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("ListRecords = %v, want both taint records", got)
	}
	for _, p := range got {
		if !strings.Contains(p, "taint") {
			t.Errorf("listed record %s is not a taint record", p)
		}
	}
}
