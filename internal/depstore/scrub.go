// Self-healing scrub. A corrupt, torn, or version-skewed record is
// refused by every Get — correct, but the refusal repeats forever: the
// record sits on disk re-failing validation on every lookup, burning a
// read, a parse, and a checksum each time. Scrub walks the local tier
// once, re-validates every record exactly the way Get does, and
// removes — or quarantines, for post-mortem — the ones that can never
// be served again, so the store converges back to all-valid after any
// crash or corruption event. fsdepd runs it at startup with -scrub and
// on demand via POST /v1/scrub.

package depstore

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// QuarantineDir is the subdirectory of the store root that a
// quarantining Scrub moves refused records into. Scrub and Evict skip
// it.
const QuarantineDir = "quarantine"

// ScrubOptions configures a scrub pass.
type ScrubOptions struct {
	// Quarantine moves refused records into the store's quarantine/
	// directory instead of deleting them, preserving the bytes for
	// post-mortem analysis. Quarantined records never shadow lookups:
	// the store only reads record layouts, never quarantine/.
	Quarantine bool
}

// ScrubReport counts what one scrub pass observed. Removed plus
// Quarantined equals the number of refused records that were healed;
// Errors counts records the pass could neither validate nor move (they
// stay for the next pass).
type ScrubReport struct {
	Scanned      int `json:"scanned"`
	Valid        int `json:"valid"`
	Corrupt      int `json:"corrupt"`
	VersionSkew  int `json:"version_skew"`
	KindMismatch int `json:"kind_mismatch"`
	Removed      int `json:"removed"`
	Quarantined  int `json:"quarantined"`
	Errors       int `json:"errors"`
}

// Bad returns how many refused records the pass found.
func (r ScrubReport) Bad() int { return r.Corrupt + r.VersionSkew + r.KindMismatch }

// Scrub re-validates every record in the local tier and deletes — or,
// with opts.Quarantine, moves aside — every record that Get would
// refuse: unparseable or torn envelopes, checksum failures,
// format-version skew, and records whose envelope kind disagrees with
// their on-disk location. Valid records are untouched, as are in-flight
// temp files (a concurrent Put's rename must not race the scrub).
// Remote-only stores are a no-op. Safe to run on a live store:
// concurrent Gets of a record being removed degrade to a clean miss.
func (s *Store) Scrub(opts ScrubOptions) (ScrubReport, error) {
	var rep ScrubReport
	if s.dir == "" {
		return rep, nil
	}
	walkErr := s.walkRecords(func(path string, _ fs.DirEntry) error {
		rep.Scanned++
		verdict := s.validateRecord(path)
		if verdict == recordOK {
			rep.Valid++
			return nil
		}
		if verdict == recordUnreadable {
			rep.Errors++
			return nil
		}
		switch verdict {
		case recordCorrupt:
			rep.Corrupt++
		case recordVersionSkew:
			rep.VersionSkew++
		case recordKindMismatch:
			rep.KindMismatch++
		}
		if opts.Quarantine {
			if err := s.quarantine(path); err != nil {
				rep.Errors++
				return nil
			}
			rep.Quarantined++
			return nil
		}
		if err := s.fsys.Remove(path); err != nil && !os.IsNotExist(err) {
			rep.Errors++
			return nil
		}
		rep.Removed++
		return nil
	})
	return rep, walkErr
}

// walkRecords calls fn for every record file in the local tier, the
// one walk Scrub and Evict share: the quarantine directory and
// in-flight temp files are skipped, and entries that vanish mid-walk
// (a concurrent eviction, scrub, or rename) are tolerated.
func (s *Store) walkRecords(fn func(path string, d fs.DirEntry) error) error {
	qdir := filepath.Join(s.dir, QuarantineDir)
	return s.fsys.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			if os.IsNotExist(err) {
				return nil
			}
			return err
		}
		if d.IsDir() {
			if path == qdir {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".rec") {
			return nil
		}
		return fn(path, d)
	})
}

// validateRecord applies Get's refusal checks to the record at path,
// deriving the expected kind from the record's location
// (dir/kind/ab/cd/key.rec) so a record misfiled under the wrong kind
// directory is caught too. A file anywhere else is unreachable by Get
// and skips the kind check.
func (s *Store) validateRecord(path string) recordVerdict {
	raw, err := s.fsys.ReadFile(path)
	if err != nil {
		return recordUnreadable
	}
	kind := ""
	if rel, err := filepath.Rel(s.dir, path); err == nil {
		if parts := strings.Split(rel, string(filepath.Separator)); len(parts) == 4 {
			kind = parts[0]
		}
	}
	_, verdict := decodeRecord(raw, kind)
	return verdict
}

// quarantine moves one refused record into qdir, flattening its
// sharded path into the file name.
func (s *Store) quarantine(path string) error {
	qdir := filepath.Join(s.dir, QuarantineDir)
	if err := s.fsys.MkdirAll(qdir, 0o755); err != nil {
		return err
	}
	rel, err := filepath.Rel(s.dir, path)
	if err != nil {
		rel = filepath.Base(path)
	}
	flat := strings.ReplaceAll(rel, string(filepath.Separator), "_")
	return s.fsys.Rename(path, filepath.Join(qdir, flat))
}
