package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
)

// The text format is a minimal, line-oriented description of an anonymous
// network. Edge order matters: ports are assigned in file order, exactly as
// with Builder.AddEdge, so a round trip preserves the port numbering that
// anonymous protocols observe.
//
//	anonnet v1
//	# comment
//	vertices 5
//	root 0
//	terminal 4
//	edge 0 1
//	edge 1 2
//	...

// MarshalText renders g in the text format.
func (g *G) MarshalText() []byte {
	var sb strings.Builder
	sb.WriteString("anonnet v1\n")
	if g.name != "" {
		fmt.Fprintf(&sb, "name %s\n", g.name)
	}
	fmt.Fprintf(&sb, "vertices %d\n", g.NumVertices())
	fmt.Fprintf(&sb, "root %d\n", g.root)
	fmt.Fprintf(&sb, "terminal %d\n", g.terminal)
	for _, e := range g.edges {
		fmt.Fprintf(&sb, "edge %d %d\n", e.From, e.To)
	}
	return []byte(sb.String())
}

// ParseText reads a graph in the text format and validates it with Build.
func ParseText(r io.Reader) (*G, error) {
	sc := bufio.NewScanner(r)
	lineNo := 0
	next := func() (string, bool) {
		for sc.Scan() {
			lineNo++
			line := strings.TrimSpace(sc.Text())
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			return line, true
		}
		return "", false
	}

	header, ok := next()
	if !ok || header != "anonnet v1" {
		return nil, fmt.Errorf("graph: line %d: missing or unsupported header (want \"anonnet v1\")", lineNo)
	}

	var (
		b         *Builder
		name      string
		haveN     bool
		nVertices int
		rootSet   bool
		termSet   bool
	)
	for {
		line, ok := next()
		if !ok {
			break
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "name":
			if len(fields) < 2 {
				return nil, fmt.Errorf("graph: line %d: name requires a value", lineNo)
			}
			name = strings.Join(fields[1:], " ")
		case "vertices":
			n, err := atoiField(fields, 1, lineNo)
			if err != nil {
				return nil, err
			}
			if haveN {
				return nil, fmt.Errorf("graph: line %d: duplicate vertices directive", lineNo)
			}
			if n > 1<<22 {
				return nil, fmt.Errorf("graph: line %d: vertex count %d implausibly large", lineNo, n)
			}
			b = NewBuilder(n)
			nVertices = n
			haveN = true
		case "root":
			v, err := atoiField(fields, 1, lineNo)
			if err != nil {
				return nil, err
			}
			if !haveN {
				return nil, fmt.Errorf("graph: line %d: root before vertices", lineNo)
			}
			if v >= nVertices {
				return nil, fmt.Errorf("graph: line %d: root %d out of range", lineNo, v)
			}
			b.SetRoot(VertexID(v))
			rootSet = true
		case "terminal":
			v, err := atoiField(fields, 1, lineNo)
			if err != nil {
				return nil, err
			}
			if !haveN {
				return nil, fmt.Errorf("graph: line %d: terminal before vertices", lineNo)
			}
			if v >= nVertices {
				return nil, fmt.Errorf("graph: line %d: terminal %d out of range", lineNo, v)
			}
			b.SetTerminal(VertexID(v))
			termSet = true
		case "edge":
			if !haveN {
				return nil, fmt.Errorf("graph: line %d: edge before vertices", lineNo)
			}
			u, err := atoiField(fields, 1, lineNo)
			if err != nil {
				return nil, err
			}
			v, err := atoiField(fields, 2, lineNo)
			if err != nil {
				return nil, err
			}
			if u >= nVertices || v >= nVertices {
				return nil, fmt.Errorf("graph: line %d: edge endpoint out of range [0, %d)", lineNo, nVertices)
			}
			b.AddEdge(VertexID(u), VertexID(v))
		default:
			return nil, fmt.Errorf("graph: line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: read: %w", err)
	}
	if !haveN {
		return nil, fmt.Errorf("graph: missing vertices directive")
	}
	if !rootSet || !termSet {
		return nil, fmt.Errorf("graph: missing root or terminal directive")
	}
	b.SetName(name)
	return b.Build()
}

// TextSize returns the largest vertex count that text's vertices
// directives declare and its number of edge lines, without building the
// graph (and, on well-formed text, without allocating): a server sizes
// network text with it before ParseText builds a graph of that many
// vertices. For every text ParseText accepts, the counts equal the built
// graph's. TextSize reports no errors; ParseText rejects every text whose
// counts TextSize cannot read.
func TextSize(text string) (vertices, edges int) {
	for text != "" {
		var line string
		line, text, _ = strings.Cut(text, "\n")
		switch word, rest := nextField(line); word {
		case "edge":
			edges++
		case "vertices":
			n, _ := nextField(rest)
			if v, err := strconv.Atoi(n); err == nil {
				vertices = max(vertices, v)
			}
		}
	}
	return vertices, edges
}

// nextField splits s into its first whitespace-separated field and the
// rest, as strings.Fields would.
func nextField(s string) (field, rest string) {
	s = strings.TrimLeftFunc(s, unicode.IsSpace)
	if i := strings.IndexFunc(s, unicode.IsSpace); i >= 0 {
		return s[:i], s[i:]
	}
	return s, ""
}

func atoiField(fields []string, idx, lineNo int) (int, error) {
	if idx >= len(fields) {
		return 0, fmt.Errorf("graph: line %d: missing field %d", lineNo, idx)
	}
	v, err := strconv.Atoi(fields[idx])
	if err != nil {
		return 0, fmt.Errorf("graph: line %d: %q is not an integer", lineNo, fields[idx])
	}
	if v < 0 {
		return 0, fmt.Errorf("graph: line %d: negative vertex %d", lineNo, v)
	}
	return v, nil
}
