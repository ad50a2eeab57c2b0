package sim

// Resource models a serially-occupied device (a GPU stream, a PCIe
// link): work items run one at a time in submission order. It tracks
// cumulative busy time so utilization can be derived.
type Resource struct {
	eng *Engine

	freeAt Time // time the resource finishes its last accepted work
	busy   Duration
}

// NewResource creates a resource bound to engine e.
func NewResource(e *Engine) *Resource {
	return &Resource{eng: e}
}

// FreeAt returns the earliest time at which the resource is free.
func (r *Resource) FreeAt() Time { return r.freeAt }

// BusyTime returns total time the resource has spent occupied.
func (r *Resource) BusyTime() Duration { return r.busy }

// Occupy blocks the resource until t without counting the time as busy
// work: the device is unavailable but idle (e.g. a GPU stalled on a
// blocking send). No-op if the resource is already occupied past t.
func (r *Resource) Occupy(until Time) {
	if until > r.freeAt {
		r.freeAt = until
	}
}

// Mark is a resource's reservation state at one moment: when it next
// becomes free and its busy time so far.
type Mark struct {
	freeAt Time
	busy   Duration
}

// Mark returns the resource's current reservation state.
func (r *Resource) Mark() Mark { return Mark{r.freeAt, r.busy} }

// Rewind restores the state m recorded, undoing every Acquire and
// Occupy since. The fields are restored, not recomputed, so the busy
// time is bit-identical to what it was when m was taken.
func (r *Resource) Rewind(m Mark) { r.freeAt, r.busy = m.freeAt, m.busy }

// Acquire reserves the resource for dur seconds starting no earlier than
// readyAt, queueing FIFO behind prior work. It returns the start and end
// of the reserved interval.
func (r *Resource) Acquire(readyAt Time, dur Duration) (start, end Time) {
	if dur < 0 {
		panic("sim: negative duration")
	}
	start = readyAt
	if r.freeAt > start {
		start = r.freeAt
	}
	if now := r.eng.Now(); now > start {
		start = now
	}
	end = start + Time(dur)
	r.freeAt = end
	r.busy += dur
	return start, end
}
