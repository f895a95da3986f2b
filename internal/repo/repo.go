// Package repo implements the paper's Data Repository (Section 4): durable
// storage of meta-features and observation histories from past tuning
// tasks, from which base-learners are fit for new target tasks. The paper's
// repository held 34 tasks from 17 workloads on 2 instance types (~6400
// observations); cmd/restune-repo rebuilds an equivalent corpus in this
// substrate.
package repo

import (
	"fmt"
	"strings"

	"repro/internal/bo"
	"repro/internal/core"
	"repro/internal/gp"
	"repro/internal/knobs"
	"repro/internal/meta"
)

// ObservationRecord is one stored iteration: the four-tuple the paper's
// repository keeps, plus the internal-metric vector (which the
// OtterTune-w-Con baseline's workload mapping consumes).
type ObservationRecord struct {
	Theta    []float64 `json:"theta"`
	Res      float64   `json:"res"`
	Tps      float64   `json:"tps"`
	Lat      float64   `json:"lat"`
	Internal []float64 `json:"internal,omitempty"`
}

// TaskRecord is one historical tuning task.
type TaskRecord struct {
	TaskID       string              `json:"task_id"`
	Workload     string              `json:"workload"`
	Hardware     string              `json:"hardware"`
	KnobNames    []string            `json:"knob_names"`
	MetaFeature  []float64           `json:"meta_feature"`
	Observations []ObservationRecord `json:"observations"`
}

// History converts the stored observations to a bo.History.
func (t TaskRecord) History() bo.History {
	h := make(bo.History, len(t.Observations))
	for i, o := range t.Observations {
		h[i] = bo.Observation{Theta: o.Theta, Res: o.Res, Tps: o.Tps, Lat: o.Lat}
	}
	return h
}

// Repository is a collection of task records held in memory: what Save
// writes and Load returns.
type Repository struct {
	Tasks []TaskRecord `json:"tasks"`
}

// Add appends a task record.
func (r *Repository) Add(t TaskRecord) { r.Tasks = append(r.Tasks, t) }

// Observations returns the total stored observation count.
func (r *Repository) Observations() int {
	n := 0
	for _, t := range r.Tasks {
		n += len(t.Observations)
	}
	return n
}

// Filter returns the tasks whose index record matches the predicate.
func (r *Repository) Filter(pred func(TaskMeta) bool) []TaskRecord {
	out := make([]TaskRecord, 0, len(r.Tasks))
	for _, t := range r.Tasks {
		if pred(t.meta()) {
			out = append(out, t)
		}
	}
	return out
}

// taskSource is what the corpus builder needs from a task store: resident
// metadata per task and the full record on demand. *LazyRepository is one;
// eagerTasks adapts a Repository's in-memory records.
type taskSource interface {
	Len() int
	Meta(i int) TaskMeta
	Task(i int) (TaskRecord, error)
}

type eagerTasks []TaskRecord

func (e eagerTasks) Len() int                       { return len(e) }
func (e eagerTasks) Meta(i int) TaskMeta            { return e[i].meta() }
func (e eagerTasks) Task(i int) (TaskRecord, error) { return e[i], nil }

// corpusTasks builds one lazily-fitting meta.CorpusTask per task of src that
// pred selects (nil selects all) and whose knob *set* matches the space:
// histories are only transferable within the same configuration space.
// Knob order is immaterial — a task stored under a different knob ordering
// has its Theta vectors permuted into the space's order. The same knob set
// recurs across most tasks of a corpus, so each distinct stored order is
// matched once. Fit closures read the task's record and fit its TriGP on
// first shortlist hit, seeded with the base seed plus the task's index in
// the store — whichever repository type serves the file, a task gets the
// same surrogate.
func corpusTasks(src taskSource, space *knobs.Space, seed int64, pred func(TaskMeta) bool) []meta.CorpusTask {
	type match struct {
		perm []int
		ok   bool
	}
	matches := make(map[string]match)
	tasks := make([]meta.CorpusTask, 0, src.Len())
	for i := 0; i < src.Len(); i++ {
		m := src.Meta(i)
		if pred != nil && !pred(m) {
			continue
		}
		key := strings.Join(m.KnobNames, "\x1f")
		mt, hit := matches[key]
		if !hit {
			mt.perm, mt.ok = knobPermutation(m.KnobNames, space)
			matches[key] = mt
		}
		if !mt.ok {
			continue
		}
		tasks = append(tasks, meta.CorpusTask{
			ID:          m.TaskID,
			MetaFeature: m.MetaFeature,
			Fit: func() (*meta.BaseLearner, error) {
				rec, err := src.Task(i)
				if err != nil {
					return nil, err
				}
				h, err := rec.historyInOrder(mt.perm)
				if err != nil {
					return nil, fmt.Errorf("repo: task %s: %w", m.TaskID, err)
				}
				return meta.NewBaseLearnerSparse(m.TaskID, m.Workload, m.Hardware,
					m.MetaFeature, h, space.Dim(), seed+int64(i), gp.SparseConfig{})
			},
		})
	}
	return tasks
}

// Corpus builds a lazily-fitting meta.Corpus over the tasks matching the
// predicate (nil selects all) whose knob set matches the space. Histories
// are already in memory; surrogate fits are still deferred to first
// shortlist hit.
func (r *Repository) Corpus(space *knobs.Space, seed int64, pred func(TaskMeta) bool, opts meta.CorpusOptions) (*meta.Corpus, error) {
	tasks, err := r.CorpusTasks(space, seed, pred)
	if err != nil {
		return nil, err
	}
	return meta.NewCorpus(tasks, opts), nil
}

// CorpusTasks builds the task list Corpus wraps, exposed separately so a
// fleet can feed one repository into a meta.SharedCorpus.
func (r *Repository) CorpusTasks(space *knobs.Space, seed int64, pred func(TaskMeta) bool) ([]meta.CorpusTask, error) {
	return corpusTasks(eagerTasks(r.Tasks), space, seed, pred), nil
}

// knobPermutation matches stored knob names against a space by name set,
// independent of order. It returns perm such that a stored Theta vector
// maps onto the space's order via permuted[j] = theta[perm[j]]; a nil perm
// with ok=true means the orders already agree. ok is false when the name
// sets differ or the stored names contain duplicates.
func knobPermutation(names []string, space *knobs.Space) (perm []int, ok bool) {
	ks := space.Knobs()
	if len(names) != len(ks) {
		return nil, false
	}
	idx := make(map[string]int, len(names))
	for i, n := range names {
		if _, dup := idx[n]; dup {
			return nil, false
		}
		idx[n] = i
	}
	perm = make([]int, len(ks))
	identity := true
	for j, k := range ks {
		i, found := idx[k.Name]
		if !found {
			return nil, false
		}
		perm[j] = i
		if i != j {
			identity = false
		}
	}
	if identity {
		return nil, true
	}
	return perm, true
}

// historyInOrder converts the stored observations to a bo.History with each
// Theta permuted by perm (nil means stored order already matches).
func (t TaskRecord) historyInOrder(perm []int) (bo.History, error) {
	if perm == nil {
		return t.History(), nil
	}
	h := make(bo.History, len(t.Observations))
	for i, o := range t.Observations {
		if len(o.Theta) != len(perm) {
			return nil, fmt.Errorf("observation %d: theta has %d entries, knob set has %d",
				i, len(o.Theta), len(perm))
		}
		theta := make([]float64, len(perm))
		for j, src := range perm {
			theta[j] = o.Theta[src]
		}
		h[i] = bo.Observation{Theta: theta, Res: o.Res, Tps: o.Tps, Lat: o.Lat}
	}
	return h, nil
}

// FromResult converts a finished tuning session into a task record.
func FromResult(taskID, workloadName, hardwareName string, metaFeature []float64, space *knobs.Space, res *core.Result) TaskRecord {
	t := TaskRecord{
		TaskID:      taskID,
		Workload:    workloadName,
		Hardware:    hardwareName,
		MetaFeature: append([]float64(nil), metaFeature...),
	}
	for _, k := range space.Knobs() {
		t.KnobNames = append(t.KnobNames, k.Name)
	}
	for _, it := range res.Iterations {
		t.Observations = append(t.Observations, ObservationRecord{
			Theta:    it.Observation.Theta,
			Res:      it.Observation.Res,
			Tps:      it.Observation.Tps,
			Lat:      it.Observation.Lat,
			Internal: it.Measurement.Internal,
		})
	}
	return t
}

// Save writes the repository in the indexed format (see format.go),
// atomically via the temp-file + fsync + rename discipline, so a crash
// mid-save leaves either the old repository or the new one, never a
// truncated mix.
func (r *Repository) Save(path string) error {
	data, err := encode(r.Tasks)
	if err != nil {
		return fmt.Errorf("repo: encoding: %w", err)
	}
	return atomicWrite(path, data)
}

// Load reads a repository into memory: OpenLazy, then every task's record.
func Load(path string) (*Repository, error) {
	l, err := OpenLazy(path)
	if err != nil {
		return nil, err
	}
	defer l.Close()
	tasks := make([]TaskRecord, l.Len())
	for i := range tasks {
		if tasks[i], err = l.Task(i); err != nil {
			return nil, err
		}
	}
	return &Repository{Tasks: tasks}, nil
}
