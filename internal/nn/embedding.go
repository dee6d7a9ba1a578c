package nn

import (
	"fmt"

	"cannikin/internal/rng"
	"cannikin/internal/tensor"
)

// Embedding maps integer IDs to dense vectors — the core layer of the
// paper's NeuMF recommendation workload. The forward input is a
// (batch x fields) tensor of IDs (stored as float64 indices); the output
// concatenates each field's embedding, (batch x fields*dim).
type Embedding struct {
	table *Param
	dim   int
	// cached IDs for the backward pass (backing storage reused).
	ids [][]int
	// out and dx are the forward/backward workspaces.
	out, dx *tensor.T
}

// NewEmbedding returns an embedding table of vocab rows with dim columns.
func NewEmbedding(vocab, dim int, src *rng.Source) *Embedding {
	if vocab <= 0 || dim <= 0 {
		panic(fmt.Sprintf("nn: invalid embedding %dx%d", vocab, dim))
	}
	return &Embedding{
		table: &Param{
			Name: fmt.Sprintf("embedding_%dx%d", vocab, dim),
			W:    tensor.Randn(vocab, dim, 0.1, src),
			Grad: tensor.New(vocab, dim),
		},
		dim: dim,
	}
}

// Vocab returns the table's row count.
func (e *Embedding) Vocab() int { return e.table.W.Rows() }

// Forward looks up each row's IDs and concatenates their embeddings. IDs
// must be integral values in [0, vocab).
func (e *Embedding) Forward(x *tensor.T) *tensor.T {
	batch, fields := x.Rows(), x.Cols()
	e.out = tensor.Reuse(e.out, batch, fields*e.dim)
	if cap(e.ids) >= batch {
		e.ids = e.ids[:batch]
	} else {
		e.ids = make([][]int, batch)
	}
	for i := 0; i < batch; i++ {
		row := x.Row(i)
		if cap(e.ids[i]) >= fields {
			e.ids[i] = e.ids[i][:fields]
		} else {
			e.ids[i] = make([]int, fields)
		}
		for f, vf := range row {
			id := int(vf)
			if id < 0 || id >= e.Vocab() || float64(id) != vf {
				panic(fmt.Sprintf("nn: embedding id %v out of [0, %d)", vf, e.Vocab()))
			}
			e.ids[i][f] = id
			copy(e.out.Row(i)[f*e.dim:(f+1)*e.dim], e.table.W.Row(id))
		}
	}
	return e.out
}

// Backward scatters the upstream gradient into the rows that were looked
// up; the returned input gradient is zero (IDs are not differentiable).
func (e *Embedding) Backward(dout *tensor.T) *tensor.T {
	if e.ids == nil {
		panic("nn: Embedding.Backward before Forward")
	}
	for i, rowIDs := range e.ids {
		d := dout.Row(i)
		for f, id := range rowIDs {
			g := e.table.Grad.Row(id)
			src := d[f*e.dim : (f+1)*e.dim]
			for j := range src {
				g[j] += src[j]
			}
		}
	}
	e.dx = tensor.Reuse(e.dx, len(e.ids), len(e.ids[0]))
	e.dx.Zero()
	return e.dx
}

// Params returns the embedding table.
func (e *Embedding) Params() []*Param { return []*Param{e.table} }

func (e *Embedding) shadow() Layer { return &Embedding{table: e.table, dim: e.dim} }

func (e *Embedding) replica(grad []float64) Layer {
	return &Embedding{table: e.table.replica(grad), dim: e.dim}
}

var _ Layer = (*Embedding)(nil)
