package repo

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"sync"

	"repro/internal/knobs"
	"repro/internal/meta"
)

// TaskMeta is the eagerly-resident view of one task in a lazily-opened
// repository: everything shortlisting and knob-set matching need, without
// the observation history.
type TaskMeta struct {
	TaskID      string
	Workload    string
	Hardware    string
	KnobNames   []string
	MetaFeature []float64
	KnobSetHash uint64
	ObsCount    int
}

// meta is the resident view of an in-memory record.
func (t TaskRecord) meta() TaskMeta {
	return TaskMeta{
		TaskID:      t.TaskID,
		Workload:    t.Workload,
		Hardware:    t.Hardware,
		KnobNames:   t.KnobNames,
		MetaFeature: t.MetaFeature,
		KnobSetHash: KnobSetHash(t.KnobNames),
		ObsCount:    len(t.Observations),
	}
}

// LazyRepository is a repository opened without decoding task histories:
// only the v2 index segment is resident, and each task's observations are
// read and decoded on demand — the corpus-scale complement to Load, whose
// eager decode is proportional to total stored observations. v1 files are
// accepted too (they decode eagerly at open; laziness needs the v2 index).
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
	f         *os.File // nil for the v1 eager fallback
	dataStart int64
	dataLen   int64
	entries   []IndexEntry
	metas     []TaskMeta
	eager     []TaskRecord // v1 fallback only

	// mu guards closed: readers (Task) hold it shared for the duration of
	// their positioned read, Close holds it exclusive, so a file descriptor
	// is never released mid-read.
	mu     sync.RWMutex
	closed bool
}

// OpenLazy opens a repository file, reading only its index. For v1 files
// there is no index segment, so the whole file is decoded eagerly and
// served from memory behind the same interface.
func OpenLazy(path string) (*LazyRepository, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("repo: opening %s: %w", path, err)
	}
	head := make([]byte, len(formatHeader))
	n, err := io.ReadFull(f, head)
	if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
		f.Close()
		return nil, fmt.Errorf("repo: reading %s: %w", path, err)
	}
	if !bytes.Equal(head[:n], []byte(formatHeader)) {
		// v1: no index to page against — decode eagerly.
		f.Close()
		r, err := Load(path)
		if err != nil {
			return nil, err
		}
		l := &LazyRepository{eager: r.Tasks}
		l.metas = make([]TaskMeta, len(r.Tasks))
		for i, t := range r.Tasks {
			l.metas[i] = t.meta()
		}
		return l, nil
	}
	br := bufio.NewReader(f)
	indexLine, err := br.ReadBytes('\n')
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("repo: %s: truncated index segment: %w", path, err)
	}
	entries, err := decodeIndexLine(bytes.TrimSuffix(indexLine, []byte("\n")))
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("repo: %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("repo: %s: %w", path, err)
	}
	l := &LazyRepository{
		f:         f,
		dataStart: int64(len(formatHeader) + len(indexLine)),
		entries:   entries,
	}
	l.dataLen = st.Size() - l.dataStart
	if err := checkSegmentBounds(entries, l.dataLen); err != nil {
		f.Close()
		return nil, fmt.Errorf("repo: %s: %w", path, err)
	}
	l.metas = make([]TaskMeta, len(entries))
	for i, e := range entries {
		l.metas[i] = TaskMeta{
			TaskID:      e.TaskID,
			Workload:    e.Workload,
			Hardware:    e.Hardware,
			KnobNames:   e.KnobNames,
			MetaFeature: e.MetaFeature,
			KnobSetHash: e.KnobSetHash,
			ObsCount:    e.ObsCount,
		}
	}
	return l, nil
}

// Len returns the task count.
func (l *LazyRepository) Len() int { return len(l.metas) }

// Meta returns task i's resident metadata.
func (l *LazyRepository) Meta(i int) TaskMeta { return l.metas[i] }

// Task decodes task i's full record, reading its segment on demand. Each
// call re-reads and re-decodes; callers wanting residency cache the result
// (Corpus caches fitted learners, which subsumes caching records). Safe
// for concurrent callers: the segment read is positioned (pread) into a
// fresh buffer, so parallel sessions never interleave file offsets.
func (l *LazyRepository) Task(i int) (TaskRecord, error) {
	if l.f == nil {
		return l.eager[i], nil
	}
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
// and later ones fail cleanly. Idempotent. The v1 fallback holds no file
// and Close is a no-op.
func (l *LazyRepository) Close() error {
	if l.f == nil {
		return nil
	}
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
	return corpusTasks(l, space, seed, func(i int) bool { return pred == nil || pred(l.metas[i]) }), nil
}
