package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"lbe/internal/api"
	"lbe/internal/cliutil"
	"lbe/internal/digest"
	"lbe/internal/engine"
	"lbe/internal/fasta"
	"lbe/internal/gen"
	"lbe/internal/mass"
	"lbe/internal/spectrum"
)

// targetRows is the index size every workload searches: the paper's 18M
// rows at 1/100.
const targetRows = 200_000

// maxMods is the CLI default for modified residues per peptide.
const maxMods = 2

// sessionConfig is the configuration lbe-search -db and lbe-serve build
// with by default (cyclic policy, top-5 PSMs, 256-spectrum pipeline
// batches, one scheduler worker per core), at the given shard count and
// precursor tolerance.
func sessionConfig(shards int, tol mass.Tolerance) engine.SessionConfig {
	cfg := engine.DefaultSessionConfig()
	cfg.Params.Mods.MaxPerPep = maxMods
	cfg.Params.PrecursorTol = tol
	cfg.TopK = 5
	cfg.Shards = shards
	return cfg
}

// database is a generated proteome cut to targetRows index rows.
type database struct {
	fasta    []byte   // the proteins as FASTA text
	peptides []string // their digest, as the CLI's -digest pipeline makes it
	rows     int      // index rows (peptide variants) the digest yields
}

// databaseSeed fixes the proteome. Like a reference database it is the
// same in every run; the run's seed varies the spectra and the schedules.
// Seeding the database too would make the work per spectrum, and so every
// timing, vary from seed to seed by more than the benchmark's bounds.
const databaseSeed = 2019

// makeDatabase generates the proteome and keeps its proteins, in order,
// until their digest reaches targetRows index rows.
func makeDatabase() (database, error) {
	recs, err := gen.Proteome(gen.ProteomeConfig{
		Seed:         databaseSeed,
		NumFamilies:  96, // about 1.8× the families targetRows needs
		Homologs:     4,
		MeanLen:      450,
		MutationRate: 0.03,
	})
	if err != nil {
		return database{}, err
	}
	mc := sessionConfig(1, mass.Open()).Params.Mods
	dcfg := digest.DefaultConfig()
	seen := make(map[string]bool)
	rows, keep := 0, 0
	var peps []digest.Peptide
	for keep < len(recs) && rows < targetRows {
		peps, err = dcfg.Protein(peps[:0], keep, recs[keep].Sequence)
		if err != nil {
			return database{}, err
		}
		for _, p := range peps {
			if !seen[p.Sequence] {
				seen[p.Sequence] = true
				rows += mc.Count(p.Sequence)
			}
		}
		keep++
	}
	if rows < targetRows {
		return database{}, fmt.Errorf("proteome of %d proteins yields only %d rows", len(recs), rows)
	}
	recs = recs[:keep]
	var buf bytes.Buffer
	if err := fasta.WriteAll(&buf, recs); err != nil {
		return database{}, err
	}
	peptides, err := digestFasta(buf.Bytes())
	if err != nil {
		return database{}, err
	}
	rows = 0
	for _, p := range peptides {
		rows += mc.Count(p)
	}
	return database{fasta: buf.Bytes(), peptides: peptides, rows: rows}, nil
}

// digestFasta parses FASTA text and digests the proteins the way
// lbe-serve -digest and lbe-index -digest do.
func digestFasta(text []byte) ([]string, error) {
	recs, err := fasta.ReadAll(bytes.NewReader(text))
	if err != nil {
		return nil, err
	}
	seqs := make([]string, len(recs))
	for i, r := range recs {
		seqs[i] = r.Sequence
	}
	return cliutil.DigestPeptides(seqs)
}

// spectra samples n query spectra from the peptides, uniformly, so the
// work a set of spectra costs barely varies with the seed. (The serving
// workloads skew which spectra repeat themselves.) Scans are numbered
// from firstScan so spectra of different phases never share a scan.
func spectra(peptides []string, seed uint64, n, firstScan int) ([]spectrum.Experimental, error) {
	cfg := gen.DefaultSpectraConfig()
	cfg.Seed = seed
	cfg.ZipfExponent = 0
	cfg.NumSpectra = n
	cfg.Mods = sessionConfig(1, mass.Open()).Params.Mods
	qs, _, err := gen.Spectra(peptides, cfg)
	if err != nil {
		return nil, err
	}
	for i := range qs {
		qs[i].Scan = firstScan + i
	}
	return qs, nil
}

// searchBody encodes spectra as a /search request body.
func searchBody(qs []spectrum.Experimental) []byte {
	req := api.SearchRequest{Spectra: make([]api.SpectrumJSON, len(qs))}
	for i, q := range qs {
		req.Spectra[i] = api.FromExperimental(q)
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // plain data always encodes
	}
	return b
}

// render returns the exact /search response body a server sends for
// these results: the oracle every answer is compared with byte for byte.
func render(qs []spectrum.Experimental, psms [][]engine.PSM, peptides []string) []byte {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(api.BuildSearchResponse(qs, psms, peptides)); err != nil {
		panic(err)
	}
	return buf.Bytes()
}
