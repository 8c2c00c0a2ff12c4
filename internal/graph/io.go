package graph

import (
	"bufio"
	"fmt"
	"io"
)

// This file reads the edge-list exchange format of cmd/d1lc -input (the
// format cmd/graphgen writes):
//
//	n m
//	u v        (one line per edge, 0-based node ids)
//
// Lines starting with '#' are comments and are skipped.

// maxEdgeListNodes bounds the node count a header may declare: 16× the
// largest instance any shipped workload builds (gnp-1m). The builder
// sizes its arrays by the header before it reads an edge, so this keeps
// a hostile 13-byte header from asking for gigabytes.
const maxEdgeListNodes = 1 << 24

// ReadEdgeList parses the exchange format. Duplicate edges and self-loops
// are dropped (Builder semantics); the declared m is validated against the
// number of edge lines read.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	var n, m int
	if err := scanHeader(br, &n, &m); err != nil {
		return nil, err
	}
	if n < 0 || m < 0 {
		return nil, fmt.Errorf("graph: negative header %d %d", n, m)
	}
	if n > maxEdgeListNodes {
		return nil, fmt.Errorf("graph: header declares %d nodes, more than the limit of %d", n, maxEdgeListNodes)
	}
	b := NewBuilder(n)
	read := 0
	for {
		var u, v int32
		_, err := fmt.Fscan(br, &u, &v)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("graph: edge %d: %v", read, err)
		}
		if u < 0 || v < 0 || int(u) >= n || int(v) >= n {
			return nil, fmt.Errorf("graph: edge %d-%d out of range n=%d", u, v, n)
		}
		b.AddEdge(u, v)
		read++
	}
	if read != m {
		return nil, fmt.Errorf("graph: header declares %d edges, file has %d", m, read)
	}
	return b.Build(), nil
}

// scanHeader reads the "n m" line, skipping '#' comments.
func scanHeader(br *bufio.Reader, n, m *int) error {
	for {
		c, err := br.ReadByte()
		if err != nil {
			return fmt.Errorf("graph: missing header: %v", err)
		}
		if c == '#' {
			if _, err := br.ReadString('\n'); err != nil {
				return err
			}
			continue
		}
		if c == '\n' || c == ' ' || c == '\t' || c == '\r' {
			continue
		}
		if err := br.UnreadByte(); err != nil {
			return err
		}
		_, err = fmt.Fscan(br, n, m)
		return err
	}
}
