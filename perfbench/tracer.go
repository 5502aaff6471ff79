package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans are kept
// in memory while a traced phase runs and written out when it ends.
type span struct {
	name       string
	id         int64 // host, cycle or mutant-study id
	start, end int64 // ns since the tracer's epoch
	parent     int32 // index of the enclosing span in the same tracer, -1 at the root
}

// tracer records the spans of one goroutine. A nil *tracer records
// nothing, so untraced rounds run the same code with only nil checks.
type tracer struct {
	epoch time.Time
	spans []span
	stack []int32
}

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

// begin opens a span and returns its handle for end.
func (t *tracer) begin(name string, id int64) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{name: name, id: id, start: int64(time.Since(t.epoch)), parent: parent})
	i := int32(len(t.spans) - 1)
	t.stack = append(t.stack, i)
	return i
}

// end closes the span begin returned; spans close innermost first.
func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	t.spans[i].end = int64(time.Since(t.epoch))
	t.stack = t.stack[:len(t.stack)-1]
}

// durations returns the wall time of every span called name, in units of
// unit.
func durations(ts []*tracer, name string, unit time.Duration) []float64 {
	var ds []float64
	for _, t := range ts {
		for _, s := range t.spans {
			if s.name == name {
				ds = append(ds, float64(s.end-s.start)/float64(unit))
			}
		}
	}
	return ds
}

// selfTimes returns, per span name, the summed self time in ns: each span's
// duration minus the part its child spans cover.
func selfTimes(ts []*tracer) map[string]int64 {
	self := map[string]int64{}
	for _, t := range ts {
		child := make([]int64, len(t.spans))
		for _, s := range t.spans {
			if s.parent >= 0 {
				child[s.parent] += s.end - s.start
			}
		}
		for i, s := range t.spans {
			self[s.name] += s.end - s.start - child[i]
		}
	}
	return self
}

// selfShare returns the share of all recorded self time spent in the
// named spans.
func selfShare(self map[string]int64, names ...string) float64 {
	var total, part int64
	for _, v := range self {
		total += v
	}
	for _, n := range names {
		part += self[n]
	}
	if total == 0 {
		return 0
	}
	return float64(part) / float64(total)
}

// writeSpans writes the spans as a Chrome trace-event file (one track per
// tracer), loadable in Perfetto, and returns its path.
func writeSpans(dir, workload string, seed int64, ts []*tracer) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-%d.json", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"traceEvents":[`)
	first := true
	for tid, t := range ts {
		for i, s := range t.spans {
			name, _ := json.Marshal(s.name)
			if !first {
				w.WriteByte(',')
			}
			first = false
			fmt.Fprintf(w, "\n{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"span\":%d,\"parent\":%d}}",
				name, tid, float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.id, i, s.parent)
		}
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		return "", err
	}
	return path, f.Close()
}
