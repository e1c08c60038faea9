package core

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/dataframe"
	"repro/internal/extrap"
)

// NodeModel pairs a call-tree node path with its fitted performance
// model.
type NodeModel struct {
	Node  string
	Model extrap.Model
	Err   error
}

// ModelExtrap fits one PMNF performance model per call-tree node (paper
// §4.2.3, Figure 11): the modeling parameter (e.g. "mpi.world.size")
// comes from the metadata table, joined to each node's metric
// measurements through the profile index — exactly why the paper calls
// the thicket "an ideal entry point for modeling studies with Extra-P":
// parameters and measurements live in one object.
//
// Nodes are fitted concurrently across a bounded worker pool; output
// order matches tree pre-order. Nodes without data report an Err.
func (t *Thicket) ModelExtrap(metric dataframe.ColKey, paramColumn string, opts extrap.Options) ([]NodeModel, error) {
	paramCol, err := t.Metadata.ColumnByName(paramColumn)
	if err != nil {
		return nil, err
	}
	params, err := t.numericParam(paramCol, paramColumn)
	if err != nil {
		return nil, err
	}

	col, err := t.PerfData.Column(metric)
	if err != nil {
		return nil, err
	}
	nodeLv := t.PerfData.Index().LevelByName(NodeLevel)

	type sample struct{ p, y float64 }
	samples := map[string][]sample{}
	for r, o := range t.ProfileOrdinals() {
		y, ok := col.At(r).AsFloat()
		if !ok || o < 0 {
			continue
		}
		node := nodeLv.At(r).Str()
		samples[node] = append(samples[node], sample{p: params[o], y: y})
	}

	paths := t.NodePaths()
	out := make([]NodeModel, len(paths))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(paths) && len(paths) > 0 {
		workers = len(paths)
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	idxCh := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				node := paths[i]
				ss := samples[node]
				if len(ss) == 0 {
					out[i] = NodeModel{Node: node, Err: fmt.Errorf("core: no measurements for node %q", node)}
					continue
				}
				ps := make([]float64, len(ss))
				ys := make([]float64, len(ss))
				for j, s := range ss {
					ps[j] = s.p
					ys[j] = s.y
				}
				m, err := extrap.Fit(ps, ys, opts)
				out[i] = NodeModel{Node: node, Model: m, Err: err}
			}
		}()
	}
	for i := range paths {
		idxCh <- i
	}
	close(idxCh)
	wg.Wait()
	return out, nil
}

// numericParam reads a metadata column as one modeling-parameter value
// per metadata row, failing on the first non-numeric cell.
func (t *Thicket) numericParam(col *dataframe.Series, column string) ([]float64, error) {
	out := make([]float64, t.Metadata.NRows())
	for r := range out {
		f, ok := col.At(r).AsFloat()
		if !ok {
			return nil, fmt.Errorf("core: metadata %q at profile %s is not numeric", column, dataframe.FormatKey(t.Metadata.Index().KeyAt(r)))
		}
		out[r] = f
	}
	return out, nil
}

// NodeModel2 pairs a call-tree node path with a fitted two-parameter
// model.
type NodeModel2 struct {
	Node  string
	Model extrap.Model2
	Err   error
}

// ModelExtrap2 fits one two-parameter PMNF model per call-tree node over
// two metadata columns (e.g. MPI ranks and problem size) — Extra-P's
// multi-parameter modeling, which the paper's §4.2.3 leaves open
// ("covering one or more modeling parameters"). Output order matches
// tree pre-order; fitting fans out across a bounded worker pool.
func (t *Thicket) ModelExtrap2(metric dataframe.ColKey, paramP, paramQ string, opts extrap.Options2) ([]NodeModel2, error) {
	lookupParam := func(column string) ([]float64, error) {
		col, err := t.Metadata.ColumnByName(column)
		if err != nil {
			return nil, err
		}
		return t.numericParam(col, column)
	}
	pOf, err := lookupParam(paramP)
	if err != nil {
		return nil, err
	}
	qOf, err := lookupParam(paramQ)
	if err != nil {
		return nil, err
	}
	col, err := t.PerfData.Column(metric)
	if err != nil {
		return nil, err
	}
	nodeLv := t.PerfData.Index().LevelByName(NodeLevel)

	type sample struct{ p, q, y float64 }
	samples := map[string][]sample{}
	for r, o := range t.ProfileOrdinals() {
		y, ok := col.At(r).AsFloat()
		if !ok || o < 0 {
			continue
		}
		node := nodeLv.At(r).Str()
		samples[node] = append(samples[node], sample{p: pOf[o], q: qOf[o], y: y})
	}

	paths := t.NodePaths()
	out := make([]NodeModel2, len(paths))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(paths) && len(paths) > 0 {
		workers = len(paths)
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	idxCh := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				node := paths[i]
				ss := samples[node]
				if len(ss) == 0 {
					out[i] = NodeModel2{Node: node, Err: fmt.Errorf("core: no measurements for node %q", node)}
					continue
				}
				ps := make([]float64, len(ss))
				qs := make([]float64, len(ss))
				ys := make([]float64, len(ss))
				for j, s := range ss {
					ps[j], qs[j], ys[j] = s.p, s.q, s.y
				}
				m, err := extrap.Fit2(ps, qs, ys, opts)
				out[i] = NodeModel2{Node: node, Model: m, Err: err}
			}
		}()
	}
	for i := range paths {
		idxCh <- i
	}
	close(idxCh)
	wg.Wait()
	return out, nil
}

// ModelNode2 fits a single node's two-parameter model.
func (t *Thicket) ModelNode2(node string, metric dataframe.ColKey, paramP, paramQ string, opts extrap.Options2) (extrap.Model2, error) {
	all, err := t.ModelExtrap2(metric, paramP, paramQ, opts)
	if err != nil {
		return extrap.Model2{}, err
	}
	for _, nm := range all {
		if nm.Node == node {
			if nm.Err != nil {
				return extrap.Model2{}, nm.Err
			}
			return nm.Model, nil
		}
	}
	return extrap.Model2{}, fmt.Errorf("core: node %q not in thicket", node)
}

// ModelNode fits a single node's model (convenience for Figure 11).
func (t *Thicket) ModelNode(node string, metric dataframe.ColKey, paramColumn string, opts extrap.Options) (extrap.Model, error) {
	all, err := t.ModelExtrap(metric, paramColumn, opts)
	if err != nil {
		return extrap.Model{}, err
	}
	for _, nm := range all {
		if nm.Node == node {
			if nm.Err != nil {
				return extrap.Model{}, nm.Err
			}
			return nm.Model, nil
		}
	}
	return extrap.Model{}, fmt.Errorf("core: node %q not in thicket", node)
}
