package main

import (
	"testing"

	"mnn"
)

// The transformer's attention MACs follow from its width and heads:
// QK and AV each do heads·L·L·(D/heads) = L·L·D multiply-accumulates.
func TestOpTableCountsAttentionMACs(t *testing.T) {
	eng, err := mnn.Open("transformer", mnn.WithMaxInputShapes(map[string][]int{"tokens": {1, 128, 32}}))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	const L, D = 8, 32
	shapes, err := tensorShapes(eng.Graph(), map[string][]int{"tokens": {1, L, D}})
	if err != nil {
		t.Fatal(err)
	}
	rows := opTable(eng.Graph(), shapes, nil)
	byNode := map[string]opRow{}
	for _, r := range rows {
		byNode[r.node] = r
	}
	for _, name := range []string{"enc0_qk", "enc0_av"} {
		r, ok := byNode[name]
		if !ok {
			t.Fatalf("no row for %s", name)
		}
		if r.class != "matmul" || r.macs != L*L*D {
			t.Errorf("%s: class %s macs %d, want matmul %d", name, r.class, r.macs, L*L*D)
		}
	}
	if r := byNode["enc0_q"]; r.macs != L*D*D {
		t.Errorf("enc0_q macs %d, want %d", r.macs, L*D*D)
	}
}

func TestOpClassSplitsConvolutions(t *testing.T) {
	type convAttrs struct{ KernelH, KernelW, Group int }
	cases := []struct {
		attrs convAttrs
		want  string
	}{
		{convAttrs{1, 1, 1}, "conv_pointwise"},
		{convAttrs{3, 3, 32}, "conv_depthwise"},
		{convAttrs{3, 3, 1}, "conv_dense"},
	}
	for _, c := range cases {
		if got := opClass("Conv2D", &c.attrs); got != c.want {
			t.Errorf("%+v: %s, want %s", c.attrs, got, c.want)
		}
	}
}
