package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"reflect"
	"strings"

	"mnn"
)

// opRow is one node of a per-op table.
type opRow struct {
	node    string
	op      string
	class   string
	inShape []int
	macs    int64
	wallMs  float64 // median over the profiled repetitions
}

// gflops is 2·MACs per second of wall time, in GFLOP/s (GOP/s for int8).
func (r opRow) gflops() float64 { return ratio(2*float64(r.macs), r.wallMs*1e6) }

// attrInt reads an integer field of a node's attribute struct. The
// attribute types live in an internal package, so they are read by field
// name; a missing field reads as def.
func attrInt(attrs any, field string, def int) int {
	v := reflect.ValueOf(attrs)
	if v.Kind() == reflect.Pointer {
		if v.IsNil() {
			return def
		}
		v = v.Elem()
	}
	if v.Kind() != reflect.Struct {
		return def
	}
	f := v.FieldByName(field)
	if !f.IsValid() || !f.CanInt() {
		return def
	}
	return int(f.Int())
}

func attrBool(attrs any, field string) bool {
	v := reflect.ValueOf(attrs)
	if v.Kind() == reflect.Pointer && !v.IsNil() {
		v = v.Elem()
	}
	if v.Kind() != reflect.Struct {
		return false
	}
	f := v.FieldByName(field)
	return f.IsValid() && f.Kind() == reflect.Bool && f.Bool()
}

// opClass groups operators the way the per-layer metrics report them.
func opClass(op string, attrs any) string {
	switch op {
	case "Conv2D":
		kh, kw := attrInt(attrs, "KernelH", 1), attrInt(attrs, "KernelW", 1)
		group := attrInt(attrs, "Group", 1)
		switch {
		case group > 1:
			return "conv_depthwise"
		case kh == 1 && kw == 1:
			return "conv_pointwise"
		default:
			return "conv_dense"
		}
	case "InnerProduct":
		return "fc"
	case "Pool":
		return "pool"
	case "Concat":
		return "concat"
	case "MatMul":
		return "matmul"
	case "GELU":
		return "gelu"
	case "Softmax":
		return "softmax"
	case "LayerNorm":
		return "layernorm"
	}
	return "other"
}

func numel(shape []int) int64 {
	n := int64(1)
	for _, d := range shape {
		n *= int64(d)
	}
	return n
}

// tensorShapes returns the shape of every activation tensor of g at the
// given input shapes. It opens a plain single-thread engine on a copy of
// the graph that declares every node output as a graph output, runs it
// once on zeros, and reads the output shapes.
func tensorShapes(g *mnn.Graph, inputs map[string][]int) (map[string][]int, error) {
	c := g.Clone()
	c.OutputNames = nil
	seen := map[string]bool{}
	for _, name := range c.InputNames {
		seen[name] = true
	}
	for _, n := range c.Nodes {
		for _, o := range n.Outputs {
			if !seen[o] {
				seen[o] = true
				c.OutputNames = append(c.OutputNames, o)
			}
		}
	}
	eng, err := mnn.Open(c, mnn.WithInputShapes(inputs), mnn.WithPoolSize(1), mnn.WithThreads(1))
	if err != nil {
		return nil, fmt.Errorf("shape probe: %w", err)
	}
	defer eng.Close()
	in := map[string]*mnn.Tensor{}
	shapes := map[string][]int{}
	for name, sh := range inputs {
		in[name] = mnn.NewTensor(sh...)
		shapes[name] = sh
	}
	out, err := eng.Infer(context.Background(), in)
	if err != nil {
		return nil, fmt.Errorf("shape probe: %w", err)
	}
	for name, t := range out {
		shapes[name] = t.Shape()
	}
	return shapes, nil
}

// node is the part of a graph node the per-op table reads. The node type
// lives in an internal package, so its fields are copied out.
type node struct {
	name        string
	op          string
	inputs      []string
	outputs     []string
	weightNames []string
	attrs       any
}

func graphNodes(g *mnn.Graph) []node {
	out := make([]node, len(g.Nodes))
	for i, n := range g.Nodes {
		out[i] = node{name: n.Name, op: n.Op.String(), inputs: n.Inputs, outputs: n.Outputs,
			weightNames: n.WeightNames, attrs: n.Attrs}
	}
	return out
}

// nodeMACs counts the multiply-accumulates of one node from its weights,
// attributes and tensor shapes; operators without a dot product count 0.
func nodeMACs(g *mnn.Graph, n node, shapes map[string][]int) int64 {
	if len(n.outputs) == 0 || len(n.inputs) == 0 {
		return 0
	}
	out, in := shapes[n.outputs[0]], shapes[n.inputs[0]]
	if out == nil || in == nil {
		return 0
	}
	weight := func() []int {
		if len(n.weightNames) == 0 || g.Weights[n.weightNames[0]] == nil {
			return nil
		}
		return g.Weights[n.weightNames[0]].Shape()
	}
	switch n.op {
	case "Conv2D", "InnerProduct":
		// Weights are [oc, ic/group, kh, kw] or [out, in]: every output
		// element takes one weight row.
		w := weight()
		if len(w) == 0 || w[0] == 0 {
			return 0
		}
		return numel(out) * numel(w) / int64(w[0])
	case "MatMul":
		heads := attrInt(n.attrs, "Heads", 0)
		switch {
		case heads == 0: // [.., M, K] x W[K, N]
			w := weight()
			if len(w) == 0 {
				return 0
			}
			return numel(out) * int64(w[0])
		case attrBool(n.attrs, "TransposeB"): // QK: per-head dot over D/heads
			return numel(out) * int64(in[len(in)-1]/heads)
		default: // AV: [B, heads·LA, LB] x [B, LB, D], dot over LB
			return numel(out) * int64(in[len(in)-1])
		}
	}
	return 0
}

// opTable builds the per-op rows of one profiled shape.
func opTable(g *mnn.Graph, shapes map[string][]int, wallMs map[string]float64) []opRow {
	var rows []opRow
	for _, n := range graphNodes(g) {
		var in []int
		if len(n.inputs) > 0 {
			in = shapes[n.inputs[0]]
		} else if len(n.outputs) > 0 {
			in = shapes[n.outputs[0]]
		}
		rows = append(rows, opRow{
			node: n.name, op: n.op, class: opClass(n.op, n.attrs), inShape: in,
			macs: nodeMACs(g, n, shapes), wallMs: wallMs[n.name],
		})
	}
	return rows
}

// classSums totals wall time and MACs per op class.
func classSums(rows []opRow) (wallMs map[string]float64, macs map[string]int64) {
	wallMs, macs = map[string]float64{}, map[string]int64{}
	for _, r := range rows {
		wallMs[r.class] += r.wallMs
		macs[r.class] += r.macs
	}
	return wallMs, macs
}

// writeOpTable writes the rows as tab-separated text with a header.
func writeOpTable(path string, rows []opRow) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "node\top\tclass\tinput_shape\tmacs\twall_ms\tgflops")
	for _, r := range rows {
		dims := make([]string, len(r.inShape))
		for i, d := range r.inShape {
			dims[i] = fmt.Sprint(d)
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%d\t%.4f\t%.3f\n",
			r.node, r.op, r.class, strings.Join(dims, "x"), r.macs, r.wallMs, r.gflops())
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
