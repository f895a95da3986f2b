package repo

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"

	"repro/internal/knobs"
	"repro/internal/meta"
)

// LazyRepository is a repository opened without decoding task histories:
// only the index line is resident, and each task's observations are read
// and decoded on demand. Load is built on it, so every read of a repository
// file goes through this one decoder.
//
// The underlying file stays open for positioned reads until Close; Save
// replaces files by rename, so a concurrent save never corrupts reads
// through an already-open LazyRepository (it keeps reading the old inode).
//
// A LazyRepository is safe for concurrent readers: Task segments are read
// with ReadAt (pread — each call carries its own offset, so the OS file
// position is never shared, seeks cannot interleave) into a per-call
// buffer, and decoding touches no shared mutable state. Many fleet
// sessions may therefore materialize corpus tasks from one open
// repository at once; the close guard makes a Task racing Close fail with
// a clean error instead of hitting a recycled file descriptor.
type LazyRepository struct {
	f         *os.File
	dataStart int64
	entries   []indexEntry

	// mu guards closed: readers (Task) hold it shared for the duration of
	// their positioned read, Close holds it exclusive, so a file descriptor
	// is never released mid-read.
	mu     sync.RWMutex
	closed bool
}

// OpenLazy opens a repository file, reading only its header and index. A
// file that does not start with the format header is refused.
func OpenLazy(path string) (*LazyRepository, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("repo: opening %s: %w", path, err)
	}
	fail := func(err error) (*LazyRepository, error) {
		f.Close()
		return nil, fmt.Errorf("repo: %s: %w", path, err)
	}
	br := bufio.NewReader(f)
	head := make([]byte, len(formatHeader))
	if _, err := io.ReadFull(br, head); err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
		return fail(err)
	}
	if !bytes.Equal(head, []byte(formatHeader)) {
		return fail(fmt.Errorf("missing the %q header; rebuild the repository with restune-repo -out",
			strings.TrimSuffix(formatHeader, "\n")))
	}
	indexLine, err := br.ReadBytes('\n')
	if err != nil {
		return fail(fmt.Errorf("truncated index segment: %w", err))
	}
	entries, err := decodeIndexLine(indexLine[:len(indexLine)-1])
	if err != nil {
		return fail(err)
	}
	st, err := f.Stat()
	if err != nil {
		return fail(err)
	}
	dataStart := int64(len(formatHeader) + len(indexLine))
	if err := checkSegmentBounds(entries, st.Size()-dataStart); err != nil {
		return fail(err)
	}
	return &LazyRepository{f: f, dataStart: dataStart, entries: entries}, nil
}

// Len returns the task count.
func (l *LazyRepository) Len() int { return len(l.entries) }

// Meta returns task i's resident index record.
func (l *LazyRepository) Meta(i int) TaskMeta { return l.entries[i].TaskMeta }

// Task decodes task i's full record, reading its segment on demand. Each
// call re-reads and re-decodes; callers wanting residency cache the result
// (Corpus caches fitted learners, which subsumes caching records). Safe
// for concurrent callers: the segment read is positioned (pread) into a
// fresh buffer, so parallel sessions never interleave file offsets.
func (l *LazyRepository) Task(i int) (TaskRecord, error) {
	e := l.entries[i]
	seg := make([]byte, e.Length)
	l.mu.RLock()
	if l.closed {
		l.mu.RUnlock()
		return TaskRecord{}, fmt.Errorf("repo: reading task %s segment: repository closed", e.TaskID)
	}
	_, err := l.f.ReadAt(seg, l.dataStart+e.Offset)
	l.mu.RUnlock()
	if err != nil {
		return TaskRecord{}, fmt.Errorf("repo: reading task %s segment: %w", e.TaskID, err)
	}
	var t TaskRecord
	if err := decodeSegment(seg, e, &t); err != nil {
		return TaskRecord{}, fmt.Errorf("repo: %w", err)
	}
	return t, nil
}

// Close releases the underlying file; in-flight Task reads complete first
// and later ones fail cleanly. Idempotent.
func (l *LazyRepository) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	return l.f.Close()
}

// Corpus builds a lazily-fitting meta.Corpus over the repository's tasks
// matching the predicate (nil selects all) whose knob set matches the
// space. Fit closures decode the task's history segment and fit its TriGP
// on first shortlist hit.
func (l *LazyRepository) Corpus(space *knobs.Space, seed int64, pred func(TaskMeta) bool, opts meta.CorpusOptions) (*meta.Corpus, error) {
	tasks, err := l.CorpusTasks(space, seed, pred)
	if err != nil {
		return nil, err
	}
	return meta.NewCorpus(tasks, opts), nil
}

// CorpusTasks builds the task list Corpus wraps, exposed separately so a
// fleet can feed one repository into a meta.SharedCorpus: the Fit closures
// are concurrency-safe (positioned reads, no shared decode state), letting
// hundreds of sessions share one open repository behind a single-flight fit
// cache.
func (l *LazyRepository) CorpusTasks(space *knobs.Space, seed int64, pred func(TaskMeta) bool) ([]meta.CorpusTask, error) {
	return corpusTasks(l, space, seed, pred), nil
}
