package vfs

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"

	"repro/internal/rng"
)

// ErrCrashed is returned by every operation after the fault backend's crash
// point fires: the process, as far as the engine can tell, has lost its
// disk.
var ErrCrashed = errors.New("vfs: crashed (fault injection)")

// ErrInjected is the error returned by an operation selected for targeted
// error injection (a failed fsync, a failed page write) without crashing.
var ErrInjected = errors.New("vfs: injected I/O error")

// Op classifies the mutating syscalls the fault backend counts. Reads are
// not counted: a crash between two reads leaves the same durable state as a
// crash at the previous mutating boundary.
type Op uint8

const (
	OpWrite Op = iota
	OpSync
	OpTruncate
	OpRename
	OpRemove
	opCount
)

func (o Op) String() string {
	switch o {
	case OpWrite:
		return "write"
	case OpSync:
		return "sync"
	case OpTruncate:
		return "truncate"
	case OpRename:
		return "rename"
	case OpRemove:
		return "remove"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// traceOp is one recorded mutating syscall.
type traceOp struct {
	op      Op
	path    string
	newPath string // rename target
	off     int64  // write offset
	data    []byte // write payload (copied)
	size    int64  // truncate size
}

// CrashMode selects how buffered-but-unsynced data behaves at the crash.
type CrashMode uint8

const (
	// DropUnsynced models a strict page cache: nothing written after the
	// last fsync of a file survives.
	DropUnsynced CrashMode = iota
	// TornWrites models writeback caching plus power loss mid-write: each
	// unsynced write survives per 512-byte sector by a seeded coin flip,
	// and a surviving sector may additionally be cut short at a random
	// byte boundary (a short write). Data covered by a completed Sync
	// always survives.
	TornWrites
)

// SectorSize is the torn-write granularity: writes persist or vanish in
// units of this many bytes, mirroring a disk's atomic sector.
const SectorSize = 512

// FaultConfig tunes a FaultFS.
type FaultConfig struct {
	// CrashAfterOps lets the first N mutating syscalls succeed and fails
	// every later operation with ErrCrashed. Zero disables the scheduled
	// crash (the trace still records, and CrashImage can compute the
	// durable state at any boundary after the fact).
	CrashAfterOps int64
}

// FaultFS is a deterministic in-memory filesystem that records every
// mutating syscall. It backs the crash-consistency harness two ways:
//
//   - live fault scheduling: CrashAfterOps fails operation N+1 onward, so a
//     workload experiences the crash exactly as a process would;
//   - post-hoc state reconstruction: CrashImage replays the recorded trace
//     up to any syscall boundary over the initial snapshot, applying the
//     crash mode's survival rules, and returns the durable file images a
//     fresh process would find on disk.
//
// All decisions are driven by explicit seeds, so every failure replays
// bit-identically.
type FaultFS struct {
	mu      sync.Mutex
	cfg     FaultConfig
	base    map[string][]byte // durable snapshot at construction
	files   map[string]*memFile
	trace   []traceOp
	crashed bool

	errAt map[Op]int64 // per-class 1-based op index that fails; <0 = all
	errN  map[Op]int64
}

type memFile struct {
	fs   *FaultFS
	name string
	data []byte
}

// NewFaultFS returns an empty fault filesystem.
func NewFaultFS(cfg FaultConfig) *FaultFS {
	return NewFaultFSFromImage(nil, cfg)
}

// NewFaultFSFromImage returns a fault filesystem whose initial durable
// state is the given file images (as produced by CrashImage). The images
// are deep-copied.
func NewFaultFSFromImage(img map[string][]byte, cfg FaultConfig) *FaultFS {
	fs := &FaultFS{
		cfg:   cfg,
		base:  make(map[string][]byte, len(img)),
		files: make(map[string]*memFile, len(img)),
		errAt: make(map[Op]int64),
		errN:  make(map[Op]int64),
	}
	for name, data := range img {
		fs.base[name] = append([]byte(nil), data...)
		fs.files[name] = &memFile{fs: fs, name: name, data: append([]byte(nil), data...)}
	}
	return fs
}

// SetErr schedules the at-th syscall of the given class (1-based, counted
// from now) to fail with ErrInjected; at < 0 fails every such syscall until
// cleared with at == 0. The failed operation is not applied.
func (fs *FaultFS) SetErr(op Op, at int64) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if at == 0 {
		delete(fs.errAt, op)
	} else {
		fs.errAt[op] = at
	}
	fs.errN[op] = 0
}

// Ops returns the number of mutating syscalls applied so far — the number
// of crash points the trace currently holds.
func (fs *FaultFS) Ops() int64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return int64(len(fs.trace))
}

// Crashed reports whether the scheduled crash has fired.
func (fs *FaultFS) Crashed() bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.crashed
}

// step gates one mutating syscall: crash scheduling first, then targeted
// error injection. Caller holds fs.mu. A nil return means the operation
// must be applied and recorded by the caller.
func (fs *FaultFS) step(op Op) error {
	if fs.crashed {
		return ErrCrashed
	}
	if fs.cfg.CrashAfterOps > 0 && int64(len(fs.trace)) >= fs.cfg.CrashAfterOps {
		fs.crashed = true
		return ErrCrashed
	}
	fs.errN[op]++
	if at, ok := fs.errAt[op]; ok && (at < 0 || at == fs.errN[op]) {
		return ErrInjected
	}
	return nil
}

// --- FS interface ----------------------------------------------------------

func (fs *FaultFS) OpenFile(path string) (File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.crashed {
		return nil, ErrCrashed
	}
	f, ok := fs.files[path]
	if !ok {
		// Creation is modeled as journaled directory metadata: it does not
		// consume a crash point (an empty file and an absent file are
		// indistinguishable to recovery).
		f = &memFile{fs: fs, name: path}
		fs.files[path] = f
	}
	return f, nil
}

func (fs *FaultFS) ReadFile(path string) ([]byte, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.crashed {
		return nil, ErrCrashed
	}
	f, ok := fs.files[path]
	if !ok {
		return nil, &os.PathError{Op: "open", Path: path, Err: os.ErrNotExist}
	}
	return append([]byte(nil), f.data...), nil
}

func (fs *FaultFS) Remove(path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[path]; !ok {
		if fs.crashed {
			return ErrCrashed
		}
		return &os.PathError{Op: "remove", Path: path, Err: os.ErrNotExist}
	}
	if err := fs.step(OpRemove); err != nil {
		return err
	}
	fs.trace = append(fs.trace, traceOp{op: OpRemove, path: path})
	delete(fs.files, path)
	return nil
}

func (fs *FaultFS) Rename(oldpath, newpath string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[oldpath]
	if !ok {
		if fs.crashed {
			return ErrCrashed
		}
		return &os.PathError{Op: "rename", Path: oldpath, Err: os.ErrNotExist}
	}
	if err := fs.step(OpRename); err != nil {
		return err
	}
	fs.trace = append(fs.trace, traceOp{op: OpRename, path: oldpath, newPath: newpath})
	delete(fs.files, oldpath)
	f.name = newpath
	fs.files[newpath] = f
	return nil
}

func (fs *FaultFS) MkdirAll(string) error { return nil }

// --- File interface --------------------------------------------------------

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.fs.crashed {
		return 0, ErrCrashed
	}
	if off < 0 {
		return 0, fmt.Errorf("vfs: negative offset %d", off)
	}
	if off >= int64(len(f.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if off < 0 {
		return 0, fmt.Errorf("vfs: negative offset %d", off)
	}
	if err := f.fs.step(OpWrite); err != nil {
		return 0, err
	}
	f.fs.trace = append(f.fs.trace, traceOp{
		op: OpWrite, path: f.name, off: off, data: append([]byte(nil), p...),
	})
	if grow := off + int64(len(p)) - int64(len(f.data)); grow > 0 {
		f.data = append(f.data, make([]byte, grow)...)
	}
	copy(f.data[off:], p)
	return len(p), nil
}

func (f *memFile) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if err := f.fs.step(OpSync); err != nil {
		return err
	}
	f.fs.trace = append(f.fs.trace, traceOp{op: OpSync, path: f.name})
	return nil
}

func (f *memFile) Truncate(size int64) error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if size < 0 {
		return fmt.Errorf("vfs: negative truncate %d", size)
	}
	if err := f.fs.step(OpTruncate); err != nil {
		return err
	}
	f.fs.trace = append(f.fs.trace, traceOp{op: OpTruncate, path: f.name, size: size})
	if size <= int64(len(f.data)) {
		f.data = f.data[:size]
	} else {
		f.data = append(f.data, make([]byte, size-int64(len(f.data)))...)
	}
	return nil
}

func (f *memFile) Close() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.fs.crashed {
		return ErrCrashed
	}
	return nil
}

func (f *memFile) Size() (int64, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.fs.crashed {
		return 0, ErrCrashed
	}
	return int64(len(f.data)), nil
}

// --- crash state reconstruction --------------------------------------------

// imgFile is a file's state during trace replay: the durable bytes (covered
// by a completed fsync) and the ordered unsynced operations still sitting
// in the page cache.
type imgFile struct {
	durable []byte
	pending []traceOp
}

// CrashImage computes the durable file images a fresh process would find if
// the machine died right after the n-th recorded syscall (0 <= n <=
// Ops()). mode decides the fate of buffered-but-unsynced data; under
// TornWrites the seed drives the per-sector survival coins, so the same
// (n, mode, seed) triple always yields the same disk.
//
// Directory metadata (create, rename, remove) is modeled as journaled: it
// survives the crash as soon as the syscall returns. Rename is atomic —
// the harness relies on this exactly as the engine's catalog does.
func (fs *FaultFS) CrashImage(n int64, mode CrashMode, seed int64) map[string][]byte {
	fs.mu.Lock()
	trace := fs.trace
	if n > int64(len(trace)) {
		n = int64(len(trace))
	}
	files := make(map[string]*imgFile, len(fs.base))
	for name, data := range fs.base {
		files[name] = &imgFile{durable: append([]byte(nil), data...)}
	}
	fs.mu.Unlock()

	for _, op := range trace[:n] {
		switch op.op {
		case OpWrite, OpTruncate:
			f := files[op.path]
			if f == nil {
				f = &imgFile{}
				files[op.path] = f
			}
			f.pending = append(f.pending, op)
		case OpSync:
			f := files[op.path]
			if f == nil {
				f = &imgFile{}
				files[op.path] = f
			}
			for _, p := range f.pending {
				applyFull(&f.durable, p)
			}
			f.pending = nil
		case OpRename:
			f := files[op.path]
			delete(files, op.path)
			files[op.newPath] = f
		case OpRemove:
			delete(files, op.path)
		}
	}

	// Files draw their torn-write coins from one stream, so they are torn
	// in name order: the image must not depend on map iteration.
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	r := rng.Derive(seed, "vfs-crash-image")
	out := make(map[string][]byte, len(files))
	for _, name := range names {
		f := files[name]
		img := append([]byte(nil), f.durable...)
		if mode == TornWrites {
			for _, p := range f.pending {
				applyTorn(&img, p, r)
			}
		}
		out[name] = img
	}
	return out
}

// applyFull applies one pending operation completely.
func applyFull(data *[]byte, op traceOp) {
	switch op.op {
	case OpWrite:
		if grow := op.off + int64(len(op.data)) - int64(len(*data)); grow > 0 {
			*data = append(*data, make([]byte, grow)...)
		}
		copy((*data)[op.off:], op.data)
	case OpTruncate:
		if op.size <= int64(len(*data)) {
			*data = (*data)[:op.size]
		} else {
			*data = append(*data, make([]byte, op.size-int64(len(*data)))...)
		}
	}
}

// applyTorn applies an unsynced operation the way a dying disk might: each
// absolute 512-byte sector the write covers survives on an independent coin
// flip, and a surviving sector is occasionally cut short (a torn write
// inside the sector). Unsynced truncates survive on a coin flip of their
// own (journaled metadata that may or may not have committed).
func applyTorn(data *[]byte, op traceOp, r interface{ Intn(int) int }) {
	if op.op == OpTruncate {
		if r.Intn(2) == 0 {
			applyFull(data, op)
		}
		return
	}
	off, payload := op.off, op.data
	for len(payload) > 0 {
		// Chunk ends at the next absolute sector boundary.
		chunkEnd := (off/SectorSize + 1) * SectorSize
		n := chunkEnd - off
		if n > int64(len(payload)) {
			n = int64(len(payload))
		}
		chunk := payload[:n]
		if r.Intn(2) == 0 {
			keep := n
			if r.Intn(4) == 0 {
				keep = int64(r.Intn(int(n))) // short write inside the sector
			}
			if keep > 0 {
				applyFull(data, traceOp{op: OpWrite, off: off, data: chunk[:keep]})
			}
		}
		off += n
		payload = payload[n:]
	}
}
