package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"strconv"

	"spinstreams/internal/core"
	"spinstreams/internal/lint"
	"spinstreams/internal/opt"
	"spinstreams/internal/randtopo"
	"spinstreams/internal/xmlio"
)

// The optimize-corpus workload optimizes a fixed corpus of 50-operator
// Algorithm-5 topologies (randtopo seeds corpusBase and up, generator
// defaults). A run's --seed sets the order the corpus is visited in;
// every result is checked against the digest recorded for its topology.
const (
	corpusBase    = 7_000_000
	corpusSize    = 48
	corpusOps     = 50
	corpusEdges   = 55
	corpusBatches = 3 // set-up batches; setup_s is the median batch
)

// corpusDigestsJSON maps each corpus seed to the digest of its
// optimization result. Regenerate it with --record-digests only when the
// optimizer's output is meant to change.
//
//go:embed corpus_digests.json
var corpusDigestsJSON []byte

type digestFile struct {
	Ops     int               `json:"ops"`
	Edges   int               `json:"edges"`
	Digests map[string]string `json:"digests"`
}

// corpusDoc is one picked pool topology and its recorded digest.
type corpusDoc struct {
	seed uint64
	want string
}

func generateDoc(seed uint64) ([]byte, error) {
	g, err := randtopo.GenerateSized(randtopo.Config{Seed: seed}, corpusOps, corpusEdges)
	if err != nil {
		return nil, fmt.Errorf("generate topology %d: %w", seed, err)
	}
	var buf bytes.Buffer
	if err := xmlio.Write(&buf, fmt.Sprintf("corpus-%d", seed), g.Topology); err != nil {
		return nil, fmt.Errorf("encode topology %d: %w", seed, err)
	}
	return buf.Bytes(), nil
}

// visitOrder is the order --seed visits the corpus in, as indices into
// corpusDocs.
func visitOrder(seed uint64) []int {
	return rand.New(rand.NewSource(int64(seed))).Perm(corpusSize)
}

// corpusDocs returns the corpus with its recorded digests.
func corpusDocs() ([]corpusDoc, error) {
	var df digestFile
	if err := json.Unmarshal(corpusDigestsJSON, &df); err != nil {
		return nil, fmt.Errorf("corpus digests: %w", err)
	}
	if df.Ops != corpusOps || df.Edges != corpusEdges || len(df.Digests) != corpusSize {
		return nil, fmt.Errorf("corpus digests were recorded for another corpus shape")
	}
	docs := make([]corpusDoc, 0, corpusSize)
	for i := 0; i < corpusSize; i++ {
		s := corpusBase + uint64(i)
		want, ok := df.Digests[strconv.FormatUint(s, 10)]
		if !ok {
			return nil, fmt.Errorf("corpus digests: no digest for topology %d", s)
		}
		docs = append(docs, corpusDoc{seed: s, want: want})
	}
	return docs, nil
}

// resultDigest condenses what the optimizer decided: the final topology's
// complete profile (the fields core.Topology.Fingerprint hashes) with every
// number rounded to 12 significant digits, the replica degrees, and the
// predicted throughput. Rounding keeps the digest independent of
// last-place floating-point differences; FinalFingerprint hashes exact
// bits and is checked for repeatability separately (fingerprintStable).
func resultDigest(res *opt.Result) string {
	t := res.Final.Topology()
	h := sha256.New()
	for i := 0; i < t.Len(); i++ {
		op := t.Op(core.OpID(i))
		fmt.Fprintf(h, "%s|%d|%.12g|%.12g|%.12g|%s|%v|", op.Name, op.Kind,
			op.ServiceTime, op.InputSelectivity, op.OutputSelectivity, op.Impl, op.Fused)
		if op.Keys != nil {
			for _, f := range op.Keys.Freq {
				fmt.Fprintf(h, "%.12g,", f)
			}
		}
		for _, e := range t.Out(core.OpID(i)) {
			fmt.Fprintf(h, "->%d:%.12g", e.To, e.Prob)
		}
		fmt.Fprintln(h)
	}
	fmt.Fprintf(h, "%v|%.9g", res.Replicas(), res.Throughput())
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// fingerprintStable reports whether optimizing t twice yields the same
// exact FinalFingerprint.
func fingerprintStable(t *core.Topology, first *opt.Result) (bool, error) {
	again, err := opt.Run(t, opt.Options{})
	if err != nil {
		return false, err
	}
	return again.Trace.FinalFingerprint == first.Trace.FinalFingerprint, nil
}

// checkOptimized returns one message per violated output check.
func checkOptimized(res *opt.Result, want string) []string {
	var bad []string
	for _, d := range res.Trace.Lint {
		if d.Severity == lint.SeverityError {
			bad = append(bad, "lint error: "+d.String())
		}
	}
	if res.Throughput() < res.Baseline.Throughput()*(1-1e-9) {
		bad = append(bad, fmt.Sprintf("prediction %.6g below unoptimized %.6g", res.Throughput(), res.Baseline.Throughput()))
	}
	if got := resultDigest(res); got != want {
		bad = append(bad, fmt.Sprintf("digest %s, recorded %s", got, want))
	}
	return bad
}

// recordDigests optimizes the corpus and writes its digests to path.
func recordDigests(path string) error {
	df := digestFile{Ops: corpusOps, Edges: corpusEdges, Digests: map[string]string{}}
	for i := uint64(0); i < corpusSize; i++ {
		seed := corpusBase + i
		x, err := generateDoc(seed)
		if err != nil {
			return err
		}
		t, err := xmlio.Read(bytes.NewReader(x))
		if err != nil {
			return fmt.Errorf("decode topology %d: %w", seed, err)
		}
		res, err := opt.Run(t, opt.Options{})
		if err != nil {
			return fmt.Errorf("optimize topology %d: %w", seed, err)
		}
		d := resultDigest(res)
		if bad := checkOptimized(res, d); len(bad) > 0 {
			return fmt.Errorf("topology %d: %v", seed, bad)
		}
		df.Digests[strconv.FormatUint(seed, 10)] = d
	}
	data, err := json.MarshalIndent(df, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
