package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// spanID names a recorded span; 0 is "no span" (the root).
type spanID int

type hostSpan struct {
	name       string
	parent     spanID
	start, end time.Duration // since the recorder's origin
}

// spans records host-clock spans around the calls the benchmark makes into
// the system. They stay in memory and are written out once, at the end of
// the run. A nil *spans records nothing, which is how untraced runs stay
// free of the bookkeeping.
type spans struct {
	origin time.Time
	list   []hostSpan
}

func newSpans() *spans { return &spans{origin: time.Now()} }

// begin opens a span under parent and returns its id.
func (s *spans) begin(name string, parent spanID) spanID {
	if s == nil {
		return 0
	}
	s.list = append(s.list, hostSpan{name: name, parent: parent, start: time.Since(s.origin), end: -1})
	return spanID(len(s.list))
}

// end closes a span opened by begin.
func (s *spans) end(id spanID) {
	if s == nil || id == 0 {
		return
	}
	s.list[id-1].end = time.Since(s.origin)
}

// total sums the durations of every closed span with the given name.
func (s *spans) total(name string) (time.Duration, int) {
	if s == nil {
		return 0, 0
	}
	var d time.Duration
	n := 0
	for _, sp := range s.list {
		if sp.name == name && sp.end >= 0 {
			d += sp.end - sp.start
			n++
		}
	}
	return d, n
}

// writeChrome writes the spans as a Chrome trace (chrome://tracing or
// Perfetto): one complete event per span, its parent id in args.
func (s *spans) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	fmt.Fprint(w, `{"traceEvents":[`)
	sep := ""
	for i, sp := range s.list {
		if sp.end < 0 {
			continue
		}
		b, err := json.Marshal(event{
			Name: sp.name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(sp.start) / 1e3,
			Dur:  float64(sp.end-sp.start) / 1e3,
			Args: map[string]int{"id": i + 1, "parent": int(sp.parent)},
		})
		if err != nil {
			f.Close()
			return err
		}
		w.WriteString(sep)
		w.Write(b)
		sep = ","
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
