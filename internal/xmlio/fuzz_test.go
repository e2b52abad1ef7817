package xmlio

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// FuzzRead exercises the XML topology parser with arbitrary input: it must
// never panic, and anything it accepts must round-trip through Write/Read
// to an equally valid topology.
func FuzzRead(f *testing.F) {
	// Seed with every real topology shipped in testdata/, so the fuzzer
	// starts from documents that exercise the full schema (selectivities,
	// probabilities, retry loops) rather than only the inline minimal
	// cases below.
	docs, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.xml"))
	if err != nil {
		f.Fatal(err)
	}
	if len(docs) == 0 {
		f.Fatal("no testdata/*.xml corpus found")
	}
	for _, path := range docs {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(raw))
	}
	f.Add(sampleXML)
	f.Add(`<topology name="t">
  <operator name="a" type="source" serviceTime="1ms"><output to="b" probability="1"/></operator>
  <operator name="b" type="sink" serviceTime="1ms"/>
</topology>`)
	f.Add(`<topology><operator name="x" type="stateful" serviceTime="0.5"/></topology>`)
	f.Add(`<topology></topology>`)
	f.Add(`not xml at all`)
	f.Add(`<topology><operator name="a" type="partitioned-stateful" serviceTime="1ms">
  <key frequency="0.5"/><key frequency="0.5"/></operator></topology>`)

	f.Fuzz(func(t *testing.T, doc string) {
		topo, err := Read(strings.NewReader(doc))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, "fuzz", topo); err != nil {
			t.Fatalf("accepted topology failed to serialize: %v", err)
		}
		back, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("round trip failed: %v\ninput: %q\nxml: %s", err, doc, buf.String())
		}
		if back.Len() != topo.Len() || back.NumEdges() != topo.NumEdges() {
			t.Fatalf("round trip changed shape: %d/%d ops, %d/%d edges",
				back.Len(), topo.Len(), back.NumEdges(), topo.NumEdges())
		}
	})
}

// FuzzDecodeDocument checks the one-pass DecodeDocument against
// referenceDecode: both must accept and reject the same inputs with the
// same error, and agree on the Document and its Positions.
func FuzzDecodeDocument(f *testing.F) {
	for _, pattern := range []string{"*.xml", filepath.Join("lint", "*.xml")} {
		docs, err := filepath.Glob(filepath.Join("..", "..", "testdata", pattern))
		if err != nil {
			f.Fatal(err)
		}
		if len(docs) == 0 {
			f.Fatalf("no testdata/%s corpus found", pattern)
		}
		for _, path := range docs {
			raw, err := os.ReadFile(path)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(string(raw))
		}
	}
	f.Add(sampleXML)
	f.Add(string(corpusDocument(f)))
	// The corners of xml.Unmarshal's behaviour the decoder has to keep.
	f.Add(`<topology name="a" name="b"><operator name="x" replicas="1" replicas=" 3 "/></topology>`)
	f.Add(`<topology><operator name="x" inputSelectivity="" outputSelectivity="nope"/></topology>`)
	f.Add(`<topology><operator replicas="1.5"><key frequency=" 0.5"/></operator></topology>`)
	f.Add(`<topo:topology xmlns:topo="urn:t"><topo:operator topo:name="x"><other><output to="y"/></other></topo:operator></topo:topology>`)
	f.Add(`<?xml version="1.0"?><!-- c --><network><operator/></network>`)
	f.Add(`<topology><group><operator name="nested"/></group><operator name="x"><fused name="m"/></operator></topology><trailing`)
	f.Add(`<topology><operator name="x"></topology>`)
	f.Add(``)

	f.Fuzz(func(t *testing.T, data string) {
		doc, pos, err := DecodeDocument(strings.NewReader(data))
		wantDoc, wantPos, wantErr := referenceDecode([]byte(data))
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("DecodeDocument error %v, reference %v\ninput: %q", err, wantErr, data)
		}
		if !reflect.DeepEqual(doc, wantDoc) {
			t.Fatalf("Document differs\n got: %+v\nwant: %+v\ninput: %q", doc, wantDoc, data)
		}
		if !reflect.DeepEqual(pos, wantPos) {
			t.Fatalf("Positions differ\n got: %+v\nwant: %+v\ninput: %q", pos, wantPos, data)
		}
	})
}

// referenceDecode is the test oracle for DecodeDocument: xml.Unmarshal
// for the Document, then a second token scan up to the root's end tag
// that records where each <operator>, and each <output> and <key> directly
// under one, starts.
func referenceDecode(data []byte) (*Document, *Positions, error) {
	var doc Document
	if err := xml.Unmarshal(data, &doc); err != nil {
		return nil, nil, fmt.Errorf("xmlio: parse: %w", err)
	}
	pos := &Positions{}
	line, lineStart, counted := 1, 0, 0
	lineCol := func(off int) Pos {
		for ; counted < off; counted++ {
			if data[counted] == '\n' {
				line, lineStart = line+1, counted+1
			}
		}
		return Pos{Line: line, Col: off - lineStart + 1}
	}
	dec := xml.NewDecoder(bytes.NewReader(data))
	var cur *OperatorPos
	depth := 0
	for {
		off := int(dec.InputOffset())
		tok, err := dec.Token()
		if err != nil {
			return nil, nil, fmt.Errorf("position scan failed where xml.Unmarshal did not: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			depth++
			switch p := lineCol(off); {
			case depth == 2 && t.Name.Local == "operator":
				pos.Operators = append(pos.Operators, OperatorPos{Start: p})
				cur = &pos.Operators[len(pos.Operators)-1]
			case depth == 3 && cur != nil && t.Name.Local == "output":
				cur.Outputs = append(cur.Outputs, p)
			case depth == 3 && cur != nil && t.Name.Local == "key":
				cur.Keys = append(cur.Keys, p)
			}
		case xml.EndElement:
			depth--
			if depth == 0 {
				return &doc, pos, nil
			}
			if depth < 2 {
				cur = nil
			}
		}
	}
}
