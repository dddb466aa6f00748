package experiments

import (
	"fmt"
	"sort"

	"distinct/internal/cluster"
	"distinct/internal/dblp"
	"distinct/internal/eval"
	"distinct/internal/reldb"
	"distinct/internal/viz"
)

// Figure5Part is the share of one real identity inside a predicted cluster.
type Figure5Part struct {
	Author      dblp.AuthorID
	Affiliation string
	Count       int
	Majority    bool // the cluster's dominant identity
	// Via names the strongest join path linking this (misplaced) part to
	// the cluster's majority identity — the misleading linkage behind the
	// mistake; empty for majority parts. The paper's figure draws these as
	// arrows; here the arrow is labeled with its cause.
	Via string
}

// Figure5Cluster is one predicted cluster with its identity composition.
type Figure5Cluster struct {
	Size  int
	Parts []Figure5Part
}

// Figure5Result is the material of the paper's Figure 5 for one name: the
// predicted grouping annotated with ground-truth identities, affiliations,
// and the mistakes (references placed with a different identity's majority
// cluster, identities split across clusters, clusters merging identities).
type Figure5Result struct {
	Name        string
	Clusters    []Figure5Cluster
	GoldAuthors int
	// MistakeRefs counts references sitting in a cluster whose majority is
	// another identity.
	MistakeRefs int
	// SplitIdentities counts identities spread over more than one cluster;
	// MergedClusters counts clusters containing more than one identity.
	SplitIdentities int
	MergedClusters  int
	Metrics         eval.Metrics
}

// Figure5 disambiguates one name with the full DISTINCT configuration and
// annotates the outcome with ground truth. With the default world and
// name "Wei Wang" this is the reproduction of the paper's Figure 5.
func (h *Harness) Figure5(name string) (*Figure5Result, error) {
	pred, err := h.predict(name, true, cluster.Options{Measure: cluster.Combined, MinSim: h.Opts.MinSim})
	if err != nil {
		return nil, err
	}

	// Invert the expanded-DB mapping so ground truth can be read per ref.
	origByExp := make(map[int64]dblp.AuthorID, len(h.refs[name]))
	for _, orig := range h.World.Refs(name) {
		origByExp[int64(h.engine.MapRef(orig))] = h.World.RefAuthor[orig]
	}

	res := &Figure5Result{Name: name, GoldAuthors: len(h.gold[name])}
	clustersPerID := make(map[dblp.AuthorID]int)
	for _, cl := range pred {
		counts := make(map[dblp.AuthorID]int)
		firstRef := make(map[dblp.AuthorID]reldb.TupleID)
		for _, r := range cl {
			id := origByExp[int64(r)]
			if _, seen := counts[id]; !seen {
				firstRef[id] = r
			}
			counts[id]++
		}
		var parts []Figure5Part
		for id, c := range counts {
			parts = append(parts, Figure5Part{
				Author:      id,
				Affiliation: h.World.Identity(id).Affiliation,
				Count:       c,
			})
			clustersPerID[id]++
		}
		sort.Slice(parts, func(i, j int) bool {
			if parts[i].Count != parts[j].Count {
				return parts[i].Count > parts[j].Count
			}
			return parts[i].Author < parts[j].Author
		})
		parts[0].Majority = true
		majorityRef := firstRef[parts[0].Author]
		for pi := range parts[1:] {
			p := &parts[1+pi]
			res.MistakeRefs += p.Count
			// Identify the misleading linkage: the strongest join path
			// between this part's reference and a majority reference.
			ex := h.engine.Explain(firstRef[p.Author], majorityRef)
			if len(ex.Contributions) > 0 {
				p.Via = ex.Contributions[0].Path.Describe(h.engine.DB().Schema)
			}
		}
		if len(parts) > 1 {
			res.MergedClusters++
		}
		res.Clusters = append(res.Clusters, Figure5Cluster{Size: len(cl), Parts: parts})
	}
	for _, n := range clustersPerID {
		if n > 1 {
			res.SplitIdentities++
		}
	}

	var predC eval.Clustering
	for _, cl := range pred {
		predC = append(predC, cl)
	}
	metrics, err := eval.Evaluate(predC, h.gold[name])
	if err != nil {
		return nil, err
	}
	res.Metrics = metrics
	return res, nil
}

// Boxes converts the result into viz boxes and split edges.
func (r *Figure5Result) Boxes() ([]viz.Box, []viz.Edge) {
	boxes := make([]viz.Box, len(r.Clusters))
	firstBoxOfID := make(map[dblp.AuthorID]int)
	var edges []viz.Edge
	for i, cl := range r.Clusters {
		box := viz.Box{Title: fmt.Sprintf("cluster %d (%d refs)", i+1, cl.Size)}
		for _, p := range cl.Parts {
			tag := ""
			if !p.Majority {
				tag = "  <- misplaced"
				if p.Via != "" {
					tag += " via " + p.Via
				}
				box.Warn = true
			}
			box.Lines = append(box.Lines, fmt.Sprintf("author#%d %s (%d)%s", p.Author, p.Affiliation, p.Count, tag))
			if j, seen := firstBoxOfID[p.Author]; seen {
				edges = append(edges, viz.Edge{From: j, To: i, Label: fmt.Sprintf("author#%d split", p.Author)})
			} else {
				firstBoxOfID[p.Author] = i
			}
		}
		boxes[i] = box
	}
	return boxes, edges
}

// FormatFigure5 renders the result as text.
func FormatFigure5(r *Figure5Result) string {
	boxes, edges := r.Boxes()
	title := fmt.Sprintf("Groups of references of %s: %d clusters for %d authors (%s)",
		r.Name, len(r.Clusters), r.GoldAuthors, r.Metrics)
	return viz.Text(title, boxes, edges) +
		fmt.Sprintf("misplaced refs: %d, merged clusters: %d, split identities: %d\n",
			r.MistakeRefs, r.MergedClusters, r.SplitIdentities)
}

// DOTFigure5 renders the result as Graphviz DOT.
func DOTFigure5(r *Figure5Result) string {
	boxes, edges := r.Boxes()
	return viz.DOT(fmt.Sprintf("Groups of references of %s", r.Name), boxes, edges)
}
