package xmlio

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"spinstreams/internal/randtopo"
)

// corpusDocument is a 50-operator Algorithm-5 topology (randtopo, sized
// like the optimize-corpus benchmark's documents) written with its key
// distributions inline.
func corpusDocument(tb testing.TB) []byte {
	tb.Helper()
	g, err := randtopo.GenerateSized(randtopo.Config{Seed: 7_000_001}, 50, 55)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, "corpus", g.Topology); err != nil {
		tb.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("<key ")) {
		tb.Fatal("corpus document has no inline keys")
	}
	return buf.Bytes()
}

const positionsXML = `<topology name="pos">
  <operator name="src" type="source" serviceTime="1ms">
    <output to="agg" probability="0.5"/>
    <output to="ghost" probability="0.5"/>
  </operator>
	<operator name="agg" type="partitioned-stateful" serviceTime="2ms">
    <key frequency="0.5"/><key frequency="0"/>
    <output to="sink" probability="1"/>
  </operator>
  <operator name="sink" type="sink" serviceTime="1ms"/>
</topology>
`

func TestPositionsOfChildElements(t *testing.T) {
	_, pos, err := DecodeDocument(strings.NewReader(positionsXML))
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		what string
		got  Pos
		want Pos
	}{
		{"operator 0", pos.Operator(0), Pos{2, 3}},
		{"operator 1 (tab-indented)", pos.Operator(1), Pos{6, 2}},
		{"operator 2", pos.Operator(2), Pos{10, 3}},
		{"output 0.0", pos.Output(0, 0), Pos{3, 5}},
		{"output 0.1", pos.Output(0, 1), Pos{4, 5}},
		{"output 1.0", pos.Output(1, 0), Pos{8, 5}},
		{"key 1.0", pos.Key(1, 0), Pos{7, 5}},
		{"key 1.1 (same line)", pos.Key(1, 1), Pos{7, 27}},
		{"missing output falls back to the operator", pos.Output(2, 0), Pos{10, 3}},
		{"missing key falls back to the operator", pos.Key(0, 0), Pos{2, 3}},
		{"unknown operator", pos.Output(3, 0), Pos{}},
	}
	for _, tc := range tests {
		if tc.got != tc.want {
			t.Errorf("%s at %d:%d, want %d:%d", tc.what, tc.got.Line, tc.got.Col, tc.want.Line, tc.want.Col)
		}
	}
}

func TestReadErrorPositions(t *testing.T) {
	tests := []struct {
		name string
		doc  string
		want Pos
		msg  string
	}{
		{"zero key frequency", positionsXML, Pos{7, 27}, "key frequency 1 is 0"},
		{"unknown output target",
			strings.Replace(positionsXML, `frequency="0"`, `frequency="0.5"`, 1),
			Pos{4, 5}, `outputs to unknown "ghost"`},
	}
	for _, tc := range tests {
		_, err := Read(strings.NewReader(tc.doc))
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Errorf("%s: error %v, want a *ParseError", tc.name, err)
			continue
		}
		if pe.Pos != tc.want || !strings.Contains(pe.Msg, tc.msg) {
			t.Errorf("%s: %v, want %d:%d: ...%s...", tc.name, err, tc.want.Line, tc.want.Col, tc.msg)
		}
	}
}

// BenchmarkDecodeDocument decodes a 50-operator document with about 9k
// inline keys; MB/s exposes any cost that grows faster than the document.
func BenchmarkDecodeDocument(b *testing.B) {
	data := corpusDocument(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeDocument(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
