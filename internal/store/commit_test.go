package store

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// pauseCommits makes s's commits stop between their durable manifest
// swap and their publish: each one signals paused and waits for resume.
// The returned func resumes them for good; the test's cleanup calls it
// too, so a failed test cannot leave a commit parked.
func pauseCommits(t *testing.T, s *Store) (paused <-chan struct{}, resume func()) {
	t.Helper()
	p, r := make(chan struct{}, 1), make(chan struct{})
	s.publishHook = func() {
		p <- struct{}{}
		<-r
	}
	resume = sync.OnceFunc(func() { close(r) })
	t.Cleanup(resume)
	return p, resume
}

// within runs f on its own goroutine and fails the test if it does not
// return inside d.
func within[T any](t *testing.T, d time.Duration, what string, f func() T) T {
	t.Helper()
	out := make(chan T, 1)
	go func() { out <- f() }()
	select {
	case v := <-out:
		return v
	case <-time.After(d):
		t.Fatalf("%s blocked for %v", what, d)
		panic("unreachable")
	}
}

// layoutView renders what the four readers report of the layout:
// Generation and ContentGeneration, Segments, a Snapshot's segments and
// generations, and Info's generations and segment list.
func layoutView(s *Store) string {
	var b strings.Builder
	fmt.Fprintf(&b, "generation %d content %d\nsegments", s.Generation(), s.ContentGeneration())
	for _, sg := range s.Segments() {
		fmt.Fprintf(&b, " g%d/L%d/%d", sg.Gen, sg.Level, sg.Profiles)
	}
	sn := s.Snapshot()
	fmt.Fprintf(&b, "\nsnapshot %d/%d", sn.gen, sn.contentGen)
	for i := 0; i < sn.NumSegments(); i++ {
		fmt.Fprintf(&b, " g%d", sn.Segment(i).Gen())
	}
	sn.Release()
	info := s.Info()
	fmt.Fprintf(&b, "\ninfo %d/%d %d profiles", info.Generation, info.ContentGen, info.Profiles)
	for _, sg := range info.SegmentList {
		fmt.Fprintf(&b, " g%d/L%d/%d", sg.Gen, sg.Level, sg.Profiles)
	}
	return b.String()
}

// TestReadsDuringCommit: a commit writes and fsyncs outside the lock
// readers take, so while one is paused between its durable manifest swap
// and its publish, Generation, ContentGeneration, Segments, Snapshot and
// Info answer at once, all with the old layout, and once it publishes,
// all with the new one.
func TestReadsDuringCommit(t *testing.T) {
	profiles := dirProfiles(t, 6, 23)
	dir := filepath.Join(t.TempDir(), "store")
	if err := CreateDir(dir, dirThicket(t, profiles[:2])); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() }) // after pauseCommits' resume: Close waits for a parked commit
	for _, tc := range []struct {
		name   string
		commit func() error
	}{
		{"append", func() error { return s.Append(dirThicket(t, profiles[2:4])) }},
		{"compact", func() error {
			gens := s.Generations()
			merged, err := s.LoadSegments(gens)
			if err != nil {
				return err
			}
			return s.ReplaceSegments(gens, merged, 1)
		}},
		{"append after compact", func() error { return s.Append(dirThicket(t, profiles[4:])) }},
	} {
		paused, resume := pauseCommits(t, s)
		before := layoutView(s)
		done := make(chan error, 1)
		go func() { done <- tc.commit() }()
		<-paused
		for range 3 {
			if during := within(t, 5*time.Second, tc.name+": a read during the commit", func() string { return layoutView(s) }); during != before {
				t.Fatalf("%s: during the commit the readers report\n%s\nwant the old layout\n%s", tc.name, during, before)
			}
		}
		resume()
		if err := <-done; err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		s.publishHook = nil
		after := layoutView(s)
		if after == before {
			t.Fatalf("%s: the readers still report the old layout after the commit", tc.name)
		}
		reopened, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		// The manifest a reopen reads names the published segments.
		if got, want := strings.Split(layoutView(reopened), "\n")[1], strings.Split(after, "\n")[1]; got != want {
			t.Errorf("%s: reopened store reports %s, want %s", tc.name, got, want)
		}
		reopened.Close()
	}
}

// openFilesUnder counts this process's open file descriptors on files
// under dir; ok is false where /proc/self/fd cannot be read.
func openFilesUnder(dir string) (n int, ok bool) {
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return 0, false
	}
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && strings.HasPrefix(target, dir+string(filepath.Separator)) {
			n++
		}
	}
	return n, true
}

// TestCloseDuringCommit: Close waits for a commit in flight, which
// publishes, and then closes every segment file, the new one included;
// a commit after Close is refused and writes nothing.
func TestCloseDuringCommit(t *testing.T) {
	profiles := dirProfiles(t, 6, 29)
	dir := filepath.Join(t.TempDir(), "store")
	if err := CreateDir(dir, dirThicket(t, profiles[:2])); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	paused, resume := pauseCommits(t, s)
	committed := make(chan error, 1)
	go func() { committed <- s.Append(dirThicket(t, profiles[2:4])) }()
	<-paused
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) while a commit was in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	resume()
	if err := <-committed; err != nil {
		t.Fatalf("the commit Close waited for: %v", err)
	}
	if err := within(t, 5*time.Second, "Close after the commit", func() error { return <-closed }); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if n, ok := openFilesUnder(dir); ok && n != 0 {
		t.Errorf("%d files under the store stay open after Close", n)
	}
	if err := s.Append(dirThicket(t, profiles[4:])); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Errorf("Append after Close = %v, want a refusal naming the closed store", err)
	}
	if _, err := os.Stat(filepath.Join(dir, segFileName(3))); !os.IsNotExist(err) {
		t.Errorf("a commit after Close wrote its segment file (err=%v)", err)
	}
	reopened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if got := reopened.Info().Profiles; got != 4 {
		t.Errorf("reopened store holds %d profiles, want 4: the commit Close waited for is durable", got)
	}
}
