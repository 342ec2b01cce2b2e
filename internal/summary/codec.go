package summary

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// The JSON encoding of a Summary is versioned and streams the
// vocabulary as an array (a 40k-word summary encodes in a few MB).
// Content summaries are the natural persistence unit of a
// metasearcher: sampling a remote database is expensive, so deployments
// build summaries offline and load them at query time — the paper
// computes the λ weights offline for the same reason (Section 3.2).

// codecVersion guards against decoding incompatible files.
const codecVersion = 1

// jsonSummary is the wire form of a Summary.
type jsonSummary struct {
	Version    int        `json:"version"`
	NumDocs    float64    `json:"num_docs"`
	CW         float64    `json:"cw"`
	SampleSize int        `json:"sample_size"`
	Words      []jsonWord `json:"words"`
}

type jsonWord struct {
	W        string  `json:"w"`
	P        float64 `json:"p"`
	Ptf      float64 `json:"ptf,omitempty"`
	SampleDF int     `json:"df,omitempty"`
}

// Encode writes the summary as JSON.
func (s *Summary) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	js := jsonSummary{
		Version:    codecVersion,
		NumDocs:    s.NumDocs,
		CW:         s.CW,
		SampleSize: s.SampleSize,
		Words:      make([]jsonWord, 0, len(s.Words)),
	}
	// Deterministic output: TopWords order (descending p̂, ties
	// alphabetical).
	for _, word := range s.TopWords(len(s.Words)) {
		st := s.Words[word]
		js.Words = append(js.Words, jsonWord{W: word, P: st.P, Ptf: st.Ptf, SampleDF: st.SampleDF})
	}
	enc := json.NewEncoder(bw)
	if err := enc.Encode(js); err != nil {
		return fmt.Errorf("summary: encode: %w", err)
	}
	return bw.Flush()
}

// Decode reads a summary previously written by Encode.
func Decode(r io.Reader) (*Summary, error) {
	var js jsonSummary
	dec := json.NewDecoder(bufio.NewReader(r))
	if err := dec.Decode(&js); err != nil {
		return nil, fmt.Errorf("summary: decode: %w", err)
	}
	if js.Version != codecVersion {
		return nil, fmt.Errorf("summary: unsupported version %d", js.Version)
	}
	if js.NumDocs < 0 || js.SampleSize < 0 {
		return nil, errors.New("summary: negative size fields")
	}
	s := &Summary{
		NumDocs:    js.NumDocs,
		CW:         js.CW,
		SampleSize: js.SampleSize,
		Words:      make(map[string]Word, len(js.Words)),
	}
	for _, w := range js.Words {
		if w.W == "" {
			return nil, errors.New("summary: empty word")
		}
		if w.P < 0 || w.P > 1 || w.Ptf < 0 || w.Ptf > 1 {
			return nil, fmt.Errorf("summary: word %q has out-of-range probabilities", w.W)
		}
		if _, dup := s.Words[w.W]; dup {
			return nil, fmt.Errorf("summary: duplicate word %q", w.W)
		}
		s.Words[w.W] = Word{P: w.P, Ptf: w.Ptf, SampleDF: w.SampleDF}
	}
	return s, nil
}
