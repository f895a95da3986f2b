package repo

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// A repository file is an index line followed by per-task history segments
// decoded on demand:
//
//	restune-repo v2\n
//	{"tasks":[{index entry}, ...]}\n
//	<task 0 segment><task 1 segment>...
//
// An index entry is a task's TaskMeta — everything shortlisting and knob
// matching need — plus its segment's offset (relative to the byte after the
// index line) and length. A segment is the task's TaskRecord as compact
// JSON. OpenLazy reads the header and index only; Load is OpenLazy followed
// by Task for every entry, so both read the file through one decoder. A file
// without the header (the pre-index bare-JSON format included) is refused.
const formatHeader = "restune-repo v2\n"

// TaskMeta is one task's index record: everything shortlisting and
// knob-set matching need, without the observation history. The JSON keys
// are the index line's.
type TaskMeta struct {
	TaskID      string    `json:"task_id"`
	Workload    string    `json:"workload"`
	Hardware    string    `json:"hardware"`
	KnobNames   []string  `json:"knob_names"`
	MetaFeature []float64 `json:"meta_feature"`
	ObsCount    int       `json:"obs_count"`
}

// indexEntry is one task's row in the index line.
type indexEntry struct {
	TaskMeta
	// Offset/Length locate the task's segment relative to the start of the
	// data section (the byte after the index line's newline).
	Offset int64 `json:"offset"`
	Length int64 `json:"length"`
}

type indexSegment struct {
	Tasks []indexEntry `json:"tasks"`
}

// meta is the index record of an in-memory task.
func (t TaskRecord) meta() TaskMeta {
	return TaskMeta{
		TaskID:      t.TaskID,
		Workload:    t.Workload,
		Hardware:    t.Hardware,
		KnobNames:   t.KnobNames,
		MetaFeature: t.MetaFeature,
		ObsCount:    len(t.Observations),
	}
}

// encode renders tasks in the repository format.
func encode(tasks []TaskRecord) ([]byte, error) {
	segments := make([][]byte, len(tasks))
	entries := make([]indexEntry, len(tasks))
	off := int64(0)
	for i, t := range tasks {
		seg, err := json.Marshal(t)
		if err != nil {
			return nil, fmt.Errorf("encoding task %s: %w", t.TaskID, err)
		}
		segments[i] = seg
		entries[i] = indexEntry{TaskMeta: t.meta(), Offset: off, Length: int64(len(seg))}
		off += int64(len(seg))
	}
	index, err := json.Marshal(indexSegment{Tasks: entries})
	if err != nil {
		return nil, fmt.Errorf("encoding index: %w", err)
	}
	var buf bytes.Buffer
	buf.Grow(len(formatHeader) + len(index) + 1 + int(off))
	buf.WriteString(formatHeader)
	buf.Write(index)
	buf.WriteByte('\n')
	for _, seg := range segments {
		buf.Write(seg)
	}
	return buf.Bytes(), nil
}

// decodeIndexLine decodes the JSON index line (without its newline).
func decodeIndexLine(line []byte) ([]indexEntry, error) {
	var ix indexSegment
	if err := json.Unmarshal(line, &ix); err != nil {
		return nil, fmt.Errorf("decoding index segment: %w", err)
	}
	return ix.Tasks, nil
}

// checkSegmentBounds rejects index entries pointing outside the data
// section — the shape a truncated or spliced file takes. The length is
// compared against the room left after the offset, so a corrupt entry
// whose offset+length would overflow int64 is rejected too.
func checkSegmentBounds(entries []indexEntry, dataLen int64) error {
	for i, e := range entries {
		if e.Offset < 0 || e.Length < 0 || e.Length > dataLen-e.Offset {
			return fmt.Errorf("task %d (%s): segment [%d,+%d) outside data section of %d bytes",
				i, e.TaskID, e.Offset, e.Length, dataLen)
		}
	}
	return nil
}

// decodeSegment decodes one task segment and cross-checks it against its
// index entry, so index/segment disagreement (a corrupt or spliced file)
// surfaces as an error rather than silently wrong transfer data.
func decodeSegment(seg []byte, e indexEntry, out *TaskRecord) error {
	if err := json.Unmarshal(seg, out); err != nil {
		return fmt.Errorf("decoding task %s segment: %w", e.TaskID, err)
	}
	if out.TaskID != e.TaskID || len(out.Observations) != e.ObsCount {
		return fmt.Errorf("task %s segment disagrees with index (id %q, %d observations, index says %d)",
			e.TaskID, out.TaskID, len(out.Observations), e.ObsCount)
	}
	return nil
}

// atomicWrite writes data to path atomically: the bytes go to a temp file
// in the destination directory, which is fsynced and then renamed over the
// live file — the same discipline as the engine's catalog — so a crash
// mid-save leaves either the old repository or the new one, never a
// truncated mix.
func atomicWrite(path string, data []byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("repo: creating temp file: %w", err)
	}
	tmp := f.Name()
	fail := func(step string, err error) error {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("repo: %s %s: %w", step, tmp, err)
	}
	if _, err := f.Write(data); err != nil {
		return fail("writing", err)
	}
	if err := f.Sync(); err != nil {
		return fail("syncing", err)
	}
	if err := f.Chmod(0o644); err != nil {
		return fail("setting mode on", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("repo: closing %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("repo: renaming %s over %s: %w", tmp, path, err)
	}
	return nil
}
