package trace

import (
	"bufio"
	"encoding/json"
	"io"
)

// chromeEvent is one Chrome trace_event record. We emit complete
// events ("ph":"X") with microsecond timestamps — the subset Perfetto
// and chrome://tracing both load directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts,omitempty"`
	Dur  float64        `json:"dur,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChrome writes the retained spans in Chrome trace_event JSON
// (the object form, with displayTimeUnit). The run is one named
// process, workers map to threads, and stitched request spans carry
// their span ID in args so one wire request reads as one tree. Cold
// path: runs once at exit, allocation budget does not apply.
func (t *Tracer) WriteChrome(w io.Writer) error {
	if t == nil {
		return nil
	}
	spans := t.Spans()
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	emit := func(ev chromeEvent) error {
		raw, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if !first {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		first = false
		_, err = bw.Write(raw)
		return err
	}
	if err := emit(chromeEvent{
		Name: "process_name", Ph: "M",
		Args: map[string]any{"name": "optiql"},
	}); err != nil {
		return err
	}
	for _, s := range spans {
		args := map[string]any{"key": s.Key}
		if s.ID != 0 {
			args["span"] = s.ID
		}
		if s.Flags != 0 {
			args["flags"] = s.Flags
		}
		if err := emit(chromeEvent{
			Name: s.Kind.Name(), Ph: "X", Tid: int(s.Worker),
			Ts:   float64(s.Start) / 1e3,
			Dur:  float64(s.Dur) / 1e3,
			Args: args,
		}); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}
