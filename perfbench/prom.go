package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// promSnapshot maps every sample line of a Prometheus text exposition
// ("family{labels}" or "family") to its value.
type promSnapshot map[string]float64

// parseProm reads the Prometheus text format (version 0.0.4): comment and
// blank lines are skipped, every other line is a series and a value, with
// an optional trailing timestamp.
func parseProm(r io.Reader) (promSnapshot, error) {
	snap := promSnapshot{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		// Label values may contain spaces, so the series ends at the
		// closing brace when there is one.
		series, rest := text, ""
		if i := strings.LastIndexByte(text, '}'); i >= 0 {
			series, rest = text[:i+1], text[i+1:]
		} else if i := strings.IndexByte(text, ' '); i >= 0 {
			series, rest = text[:i], text[i:]
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 || len(fields) > 2 {
			return nil, fmt.Errorf("metrics line %d: want a value after %q", line, series)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", line, err)
		}
		snap[series] = v
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading metrics: %w", err)
	}
	return snap, nil
}

// family sums every series of one metric family, across all label values.
func (s promSnapshot) family(name string) float64 {
	var sum float64
	for series, v := range s {
		if series == name || strings.HasPrefix(series, name+"{") {
			sum += v
		}
	}
	return sum
}

// promDelta is the change of the metric families between two scrapes.
type promDelta struct{ before, after promSnapshot }

func (d promDelta) count(name string) float64 { return d.after.family(name) - d.before.family(name) }

// meanMs is a histogram family's mean observation over the interval, in
// milliseconds (the families are in seconds).
func (d promDelta) meanMs(hist string) float64 {
	return 1000 * ratio(d.count(hist+"_sum"), d.count(hist+"_count"))
}

// scrape fetches and parses one /metrics endpoint.
func scrape(client *http.Client, url string) (promSnapshot, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, fmt.Errorf("scraping %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping %s: status %d", url, resp.StatusCode)
	}
	return parseProm(resp.Body)
}
