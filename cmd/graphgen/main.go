// Command graphgen generates and inspects the reproduction's graph
// datasets (the scaled analogues of the paper's Table 2).
//
// Usage:
//
//	graphgen -list
//	graphgen [dataset...]                  print degree statistics
//	graphgen -rmat scale,edgefactor,seed   generate a custom RMAT graph
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"atmem/graph"
)

func main() {
	list := flag.Bool("list", false, "list datasets and exit")
	rmat := flag.String("rmat", "", "generate a custom RMAT graph: scale,edgefactor,seed")
	flag.Parse()

	if *list {
		for _, d := range graph.Datasets() {
			fmt.Printf("%-11s paper: V=%s E=%s\n", d.Name, d.PaperVertices, d.PaperEdges)
		}
		return
	}

	if *rmat != "" {
		parts := strings.Split(*rmat, ",")
		if len(parts) != 3 {
			fatal("want -rmat scale,edgefactor,seed")
		}
		scale, err1 := strconv.Atoi(parts[0])
		ef, err2 := strconv.Atoi(parts[1])
		seed, err3 := strconv.ParseUint(parts[2], 10, 64)
		if err1 != nil || err2 != nil || err3 != nil {
			fatal("bad -rmat arguments")
		}
		g, err := graph.GenerateRMAT(fmt.Sprintf("rmat-s%d", scale), graph.DefaultRMAT(scale, ef, seed))
		if err != nil {
			fatal("%v", err)
		}
		describe(g)
		return
	}

	names := flag.Args()
	if len(names) == 0 {
		names = graph.DatasetNames()
	}
	for _, name := range names {
		g, err := graph.Load(name)
		if err != nil {
			fatal("%v", err)
		}
		describe(g)
	}
}

func describe(g *graph.Graph) {
	st := graph.ComputeDegreeStats(g)
	fmt.Printf("%-11s V=%-7d E=%-8d deg[min=%d avg=%.1f max=%d]\n",
		g.Name, st.Vertices, st.Edges, st.MinDegree, st.AvgDegree, st.MaxDegree)
	fmt.Printf("            in-degree share: top1%%=%.1f%% top5%%=%.1f%% top10%%=%.1f%% top20%%=%.1f%%\n",
		100*st.TopShare[0.01], 100*st.TopShare[0.05], 100*st.TopShare[0.10], 100*st.TopShare[0.20])
	fmt.Printf("            footprint (CSR + 2 prop arrays): %.1f MiB\n",
		float64(g.FootprintBytes(2))/(1<<20))
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "graphgen: "+format+"\n", args...)
	os.Exit(1)
}
