package xmlio

import (
	"encoding/xml"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Pos is a 1-based line/column location in a topology document. The zero
// value means "position unknown".
type Pos struct {
	Line, Col int
}

func (p Pos) known() bool { return p.Line > 0 }

// OperatorPos locates one operator element and its children.
type OperatorPos struct {
	// Start is the position of the <operator> start tag.
	Start Pos
	// Outputs and Keys hold the positions of the operator's <output> and
	// <key> child elements, in document order.
	Outputs []Pos
	Keys    []Pos
}

// Positions locates the elements of a decoded Document, index-aligned
// with Document.Operators, so validation errors and lint diagnostics can
// point at the offending line and column. DecodeDocument records each
// start tag's position in the same pass that decodes the element; columns
// count bytes from the start of the line.
type Positions struct {
	Operators []OperatorPos
}

// Operator returns the position of operator i, or the zero Pos when
// positions are unavailable or out of range.
func (p *Positions) Operator(i int) Pos {
	if p == nil || i < 0 || i >= len(p.Operators) {
		return Pos{}
	}
	return p.Operators[i].Start
}

// Output returns the position of operator i's j-th output edge.
func (p *Positions) Output(i, j int) Pos {
	if p == nil || i < 0 || i >= len(p.Operators) {
		return Pos{}
	}
	if outs := p.Operators[i].Outputs; j >= 0 && j < len(outs) {
		return outs[j]
	}
	return p.Operators[i].Start
}

// Key returns the position of operator i's j-th inline key entry.
func (p *Positions) Key(i, j int) Pos {
	if p == nil || i < 0 || i >= len(p.Operators) {
		return Pos{}
	}
	if keys := p.Operators[i].Keys; j >= 0 && j < len(keys) {
		return keys[j]
	}
	return p.Operators[i].Start
}

// ParseError is a topology-document validation error with the position
// of the offending element, when known.
type ParseError struct {
	Pos Pos
	Msg string
}

func (e *ParseError) Error() string {
	if e.Pos.known() {
		return fmt.Sprintf("%d:%d: %s", e.Pos.Line, e.Pos.Col, e.Msg)
	}
	return e.Msg
}

// errAt builds a positioned validation error.
func errAt(p Pos, format string, args ...any) error {
	return &ParseError{Pos: p, Msg: fmt.Sprintf(format, args...)}
}

// DecodeDocument reads the raw XML document from r without any semantic
// validation and returns element positions alongside it. It is the entry
// point for the lint analyzers, which want to diagnose documents that
// Read would reject outright.
//
// Decoding is one streaming token pass that builds the Document and its
// Positions together, with no reflection. It accepts and rejects exactly
// what xml.Unmarshal into Document would: the root must be <topology>;
// operator, key, fused and output elements match only as direct children
// (of the root, and of an operator); unknown elements and attributes are
// skipped; a repeated attribute keeps its last value; and decoding stops
// at the root's end tag.
func DecodeDocument(r io.Reader) (*Document, *Positions, error) {
	doc, pos, err := decodeDocument(xml.NewDecoder(r))
	if err != nil {
		return nil, nil, fmt.Errorf("xmlio: parse: %w", err)
	}
	return doc, pos, nil
}

func decodeDocument(dec *xml.Decoder) (*Document, *Positions, error) {
	root, _, ok, err := nextChild(dec)
	if err != nil {
		return nil, nil, err
	}
	if !ok || root.Name.Local != "topology" {
		return nil, nil, xml.UnmarshalError("expected element type <topology> but have <" + root.Name.Local + ">")
	}
	doc := &Document{XMLName: root.Name}
	for _, a := range root.Attr {
		if a.Name.Local == "name" {
			doc.Name = a.Value
		}
	}
	pos := &Positions{}
	for {
		el, at, ok, err := nextChild(dec)
		if err != nil || !ok {
			return doc, pos, err
		}
		if el.Name.Local != "operator" {
			if err := dec.Skip(); err != nil {
				return nil, nil, err
			}
			continue
		}
		od, op, err := decodeOperator(dec, el, at)
		if err != nil {
			return nil, nil, err
		}
		doc.Operators = append(doc.Operators, od)
		pos.Operators = append(pos.Operators, op)
	}
}

// decodeOperator reads one <operator> element, whose start tag el at
// position at has just been consumed, through its end tag.
func decodeOperator(dec *xml.Decoder, el xml.StartElement, at Pos) (OperatorDoc, OperatorPos, error) {
	od, op := OperatorDoc{}, OperatorPos{Start: at}
	for _, a := range el.Attr {
		var err error
		switch a.Name.Local {
		case "name":
			od.Name = a.Value
		case "type":
			od.Type = a.Value
		case "serviceTime":
			od.ServiceTime = a.Value
		case "impl":
			od.Impl = a.Value
		case "inputSelectivity":
			od.InputSelectivity, err = parseFloat(a.Value)
		case "outputSelectivity":
			od.OutputSelectivity, err = parseFloat(a.Value)
		case "replicas":
			od.Replicas, err = parseInt(a.Value)
		case "keysFile":
			od.KeysFile = a.Value
		}
		if err != nil {
			return od, op, err
		}
	}
	for {
		child, at, ok, err := nextChild(dec)
		if err != nil || !ok {
			return od, op, err
		}
		switch child.Name.Local {
		case "key":
			var k KeyDoc
			for _, a := range child.Attr {
				if a.Name.Local == "frequency" {
					if k.Frequency, err = parseFloat(a.Value); err != nil {
						return od, op, err
					}
				}
			}
			od.Keys = append(od.Keys, k)
			op.Keys = append(op.Keys, at)
		case "fused":
			var f FusedDoc
			for _, a := range child.Attr {
				if a.Name.Local == "name" {
					f.Name = a.Value
				}
			}
			od.Fused = append(od.Fused, f)
		case "output":
			var o OutputDoc
			for _, a := range child.Attr {
				switch a.Name.Local {
				case "to":
					o.To = a.Value
				case "probability":
					if o.Probability, err = parseFloat(a.Value); err != nil {
						return od, op, err
					}
				}
			}
			od.Outputs = append(od.Outputs, o)
			op.Outputs = append(op.Outputs, at)
		}
		if err := dec.Skip(); err != nil {
			return od, op, err
		}
	}
}

// nextChild advances to the next child element of the element being
// decoded and returns its start tag with the tag's position, or ok=false
// at the element's end tag. The caller consumes each child through its
// end tag before asking for the next. Positions come from the decoder's
// own line count, read before each token: markup always starts a fresh
// token, so that is where a start tag's '<' is.
func nextChild(dec *xml.Decoder) (el xml.StartElement, at Pos, ok bool, err error) {
	for {
		line, col := dec.InputPos()
		tok, err := dec.Token()
		if err != nil {
			return el, at, false, err
		}
		switch t := tok.(type) {
		case xml.StartElement:
			return t, Pos{Line: line, Col: col}, true, nil
		case xml.EndElement:
			return el, at, false, nil
		}
	}
}

// parseFloat and parseInt read numeric attributes the way xml.Unmarshal
// does: an empty value is 0, anything else is trimmed and parsed.
func parseFloat(s string) (float64, error) {
	if s == "" {
		return 0, nil
	}
	return strconv.ParseFloat(strings.TrimSpace(s), 64)
}

func parseInt(s string) (int, error) {
	if s == "" {
		return 0, nil
	}
	v, err := strconv.ParseInt(strings.TrimSpace(s), 10, strconv.IntSize)
	return int(v), err
}
