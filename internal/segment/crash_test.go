package segment

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/fsx"
	"repro/internal/invindex"
	"repro/internal/social"
)

var errInjectedCrash = errors.New("injected crash")

// reopenedContent opens the store fresh from disk and returns its sealed
// postings — what a restarted process would serve before any new ingest.
func reopenedContent(t *testing.T, dir string, opts Options) map[invindex.Key][]invindex.Posting {
	t.Helper()
	st, err := OpenStore(dir, opts)
	if err != nil {
		t.Fatalf("reopen after injected crash: %v", err)
	}
	defer st.Close()
	return sealedPostings(t, st)
}

// equalContent compares postings maps (nil and empty are equal).
func equalContent(a, b map[invindex.Key][]invindex.Posting) bool {
	if len(a) != len(b) {
		return false
	}
	for k, av := range a {
		if !reflect.DeepEqual(av, b[k]) {
			return false
		}
	}
	return true
}

// TestSegmentSealCrashInjection kills SealNow immediately before every
// filesystem mutation — segment create, fsync, rename, directory sync,
// manifest write, CURRENT swap, gc removes — and asserts that a store
// reopened from the directory sees either the pre-seal segment set or the
// post-seal one, never a torn mix, exactly mirroring the snapshot store's
// TestSaveCrashInjection contract.
func TestSegmentSealCrashInjection(t *testing.T) {
	const geohashLen = 5
	opts := Options{GeohashLen: geohashLen, BucketWidth: time.Hour, BlockSize: 8}
	batchA := testPosts(20, time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC), time.Second)
	batchB := testPosts(20, time.Date(2013, 1, 1, 0, 1, 0, 0, time.UTC), time.Second)
	oracleOld := oraclePostings(batchA, geohashLen)
	oracleNew := oraclePostings(append(append([]*social.Post{}, batchA...), batchB...), geohashLen)

	for kill := 1; ; kill++ {
		dir := t.TempDir()
		st, err := OpenStore(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range batchA {
			if _, err := st.Add(p, uint32(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.SealNow(); err != nil {
			t.Fatal(err)
		}
		for i, p := range batchB {
			if _, err := st.Add(p, uint32(len(batchA)+i)); err != nil {
				t.Fatal(err)
			}
		}

		ops := 0
		fsx.SetHook(func(op fsx.Op, path string) error {
			ops++
			if ops == kill {
				return errInjectedCrash
			}
			return nil
		})
		sealErr := st.SealNow()
		fsx.SetHook(nil)
		st.Close()

		if sealErr == nil {
			// The kill point lies beyond the seal's op count: the clean
			// run must serve the full content, and the loop has covered
			// every mutation.
			if got := reopenedContent(t, dir, opts); !equalContent(got, oracleNew) {
				t.Fatalf("kill %d: clean seal content diverges", kill)
			}
			t.Logf("seal performs %d filesystem ops; all kill points recovered", ops-1)
			return
		}
		if !errors.Is(sealErr, errInjectedCrash) {
			t.Fatalf("kill %d: unexpected error %v", kill, sealErr)
		}
		got := reopenedContent(t, dir, opts)
		if !equalContent(got, oracleOld) && !equalContent(got, oracleNew) {
			t.Fatalf("kill %d: reopened store is a torn mix (%d keys, old %d, new %d)",
				kill, len(got), len(oracleOld), len(oracleNew))
		}
	}
}

// TestSegmentCompactionCrashInjection kills Compact before every
// filesystem mutation. Compaction rewrites content it already has, so the
// reopened store must always serve the full oracle content; what may
// differ is only how many files carry it — the old segment set or the
// merged one, never a mix (a missing referenced file fails the reopen).
func TestSegmentCompactionCrashInjection(t *testing.T) {
	const geohashLen = 5
	opts := Options{GeohashLen: geohashLen, BucketWidth: time.Hour, BlockSize: 8, CompactFanIn: 2}
	posts := testPosts(48, time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC), 5*time.Minute)
	oracle := oraclePostings(posts, geohashLen)

	for kill := 1; ; kill++ {
		dir := t.TempDir()
		st, err := OpenStore(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range posts {
			if _, err := st.Add(p, uint32(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.SealNow(); err != nil {
			t.Fatal(err)
		}
		before := st.SegmentCount()
		if before < 2 {
			t.Fatalf("need multiple segments to compact, got %d", before)
		}

		ops := 0
		fsx.SetHook(func(op fsx.Op, path string) error {
			ops++
			if ops == kill {
				return errInjectedCrash
			}
			return nil
		})
		_, compactErr := st.Compact()
		fsx.SetHook(nil)
		st.Close()

		if compactErr == nil {
			st2, err := OpenStore(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			if st2.SegmentCount() >= before {
				t.Fatalf("kill %d: clean compaction did not reduce segments (%d -> %d)",
					kill, before, st2.SegmentCount())
			}
			if got := sealedPostings(t, st2); !equalContent(got, oracle) {
				t.Fatalf("kill %d: clean compaction changed content", kill)
			}
			st2.Close()
			t.Logf("compaction performs %d filesystem ops; all kill points recovered", ops-1)
			return
		}
		if !errors.Is(compactErr, errInjectedCrash) {
			t.Fatalf("kill %d: unexpected error %v", kill, compactErr)
		}
		if got := reopenedContent(t, dir, opts); !equalContent(got, oracle) {
			t.Fatalf("kill %d: reopened store lost content after crashed compaction", kill)
		}
	}
}
