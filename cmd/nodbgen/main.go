// Command nodbgen generates synthetic flat data files: the workloads of
// the paper's experiments (tables of unique random integers) plus skewed,
// float, string and mixed-schema variants for the examples, as CSV or
// newline-delimited JSON.
//
// Usage:
//
//	nodbgen -rows 1000000 -cols 4 -o table.csv
//	nodbgen -rows 100000 -cols 3 -kinds seq,float,string -header -o mixed.csv
//	nodbgen -rows 100000 -cols 3 -format ndjson -o events.ndjson
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"nodb/internal/csvgen"
)

func main() {
	var (
		rows   = flag.Int("rows", 1_000_000, "number of tuples")
		cols   = flag.Int("cols", 4, "number of attributes")
		seed   = flag.Int64("seed", 1, "generator seed")
		out    = flag.String("o", "", "output path (required)")
		header = flag.Bool("header", false, "emit a header line a1,a2,...")
		delim  = flag.String("delim", ",", "field delimiter (one character)")
		kinds  = flag.String("kinds", "", "comma-separated per-column kinds: unique,uniform,zipf,float,string,seq")
		format = flag.String("format", "csv", "output format: csv or ndjson")
	)
	flag.Parse()

	if *out == "" {
		fmt.Fprintln(os.Stderr, "nodbgen: -o is required")
		os.Exit(2)
	}
	if len(*delim) != 1 {
		fmt.Fprintln(os.Stderr, "nodbgen: -delim must be a single character")
		os.Exit(2)
	}
	var ofmt csvgen.Format
	switch *format {
	case "csv":
		ofmt = csvgen.FormatCSV
	case "ndjson":
		ofmt = csvgen.FormatNDJSON
	default:
		fmt.Fprintf(os.Stderr, "nodbgen: -format must be csv or ndjson (got %q)\n", *format)
		os.Exit(2)
	}

	spec := csvgen.Spec{
		Rows:      *rows,
		Cols:      *cols,
		Seed:      *seed,
		Header:    *header,
		Delimiter: (*delim)[0],
		Format:    ofmt,
	}
	if *kinds != "" {
		for _, k := range strings.Split(*kinds, ",") {
			cs, err := parseKind(strings.TrimSpace(k))
			if err != nil {
				fmt.Fprintf(os.Stderr, "nodbgen: %v\n", err)
				os.Exit(2)
			}
			spec.ColSpecs = append(spec.ColSpecs, cs)
		}
	}

	if err := csvgen.WriteFile(*out, spec); err != nil {
		fmt.Fprintf(os.Stderr, "nodbgen: %v\n", err)
		os.Exit(1)
	}
	st, err := os.Stat(*out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nodbgen: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s: %d rows x %d cols, %d bytes\n", *out, *rows, *cols, st.Size())
}

func parseKind(k string) (csvgen.ColSpec, error) {
	switch k {
	case "unique":
		return csvgen.ColSpec{Kind: csvgen.UniqueInts}, nil
	case "uniform":
		return csvgen.ColSpec{Kind: csvgen.UniformInts}, nil
	case "zipf":
		return csvgen.ColSpec{Kind: csvgen.ZipfInts}, nil
	case "float":
		return csvgen.ColSpec{Kind: csvgen.Floats}, nil
	case "string":
		return csvgen.ColSpec{Kind: csvgen.Strings}, nil
	case "seq":
		return csvgen.ColSpec{Kind: csvgen.SequentialInts}, nil
	default:
		return csvgen.ColSpec{}, fmt.Errorf("unknown column kind %q", k)
	}
}
