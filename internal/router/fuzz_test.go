package router

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro"
	"repro/internal/evtstream"
)

// discardEvents is a SearchEvents that drops everything.
type discardEvents struct{}

func (discardEvents) Selection([]repro.Selection, []string, string) {}
func (discardEvents) NodeResult(repro.NodeEvent)                    {}
func (discardEvents) MergeUpdate([]repro.Result)                    {}

// FuzzShardStream: on arbitrary bytes a shard stream's consumer never
// panics; a malformed frame, an error frame or a stream without a final
// frame is an error, and a reply it returns is the payload of the
// stream's last final frame. A shard's stream is input from another
// process, and the router merges it into every streamed answer.
func FuzzShardStream(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("..", "..", "testdata", "wire_golden.txt"))
	if err != nil {
		f.Fatal(err)
	}
	var frames [][]byte
	for _, line := range bytes.Split(golden, []byte("\n")) {
		if frame, ok := bytes.CutPrefix(line, []byte("frame ")); ok {
			frames = append(frames, frame)
		}
	}
	if len(frames) < 2 {
		f.Fatal("testdata/wire_golden.txt holds no stream frames")
	}
	stream := bytes.Join(frames, []byte("\n"))
	last := len(frames) - 1
	f.Add(stream)
	f.Add(bytes.Join(frames[:last], []byte("\n")))                                           // no final frame
	f.Add(append(append([]byte(nil), stream...), "\n"+string(frames[last])...))              // two finals
	f.Add(append(append([]byte(nil), stream...), "\n{\"v\":1,\"type\":\"final\""...))        // truncated
	f.Add([]byte(`{"v":1,"type":"error","seq":1,"data":{"code":"internal","message":"x"}}`)) // error frame
	f.Fuzz(func(t *testing.T, data []byte) {
		sm := newStreamMerger(discardEvents{})
		reply, err := sm.consume(0, "shard-00", bytes.NewReader(data))

		// What the stream says, read frame by frame.
		var final []byte
		bad := false
		sc := bufio.NewScanner(bytes.NewReader(data))
		sc.Buffer(nil, maxStreamFrame)
		for sc.Scan() {
			if len(sc.Bytes()) == 0 {
				continue
			}
			var fr evtstream.Frame
			if json.Unmarshal(sc.Bytes(), &fr) != nil || fr.Type == evtstream.TypeError {
				bad = true
			} else if fr.Type == evtstream.TypeFinal {
				final = fr.Data
			}
		}
		switch {
		case bad && err == nil:
			t.Fatalf("a stream with a malformed or error frame returned %+v", reply)
		case final == nil && err == nil:
			t.Fatalf("a stream without a final frame returned %+v", reply)
		case err != nil:
			if reply != nil {
				t.Fatalf("consume returned both a reply and the error %v", err)
			}
			return
		}
		var want repro.SearchResponse
		if json.Unmarshal(final, &want) != nil {
			t.Fatalf("consume accepted a final frame whose payload does not decode: %s", final)
		}
		if !reflect.DeepEqual(*reply, want) {
			t.Fatalf("reply %+v is not the last final frame's payload %+v", *reply, want)
		}
	})
}
