// Time-series export: the Observer's controller-tick samples as CSV
// (one row per sample, per-class attainment columns unioned across
// the run) or JSON (the Sample structs verbatim).
package obs

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// seriesColumns is the fixed CSV column prefix; per-class attainment
// columns (att_req:<class>, att_met:<class>) follow, sorted by class.
var seriesColumns = []string{
	"t_ms", "track", "desired", "active", "warming", "draining",
	"down", "ejected", "queued", "running", "kv_util", "cache_hit_rate",
	"shed_rate", "breakers_open", "breakers_half_open",
	"cloud_requests", "cloud_spend",
}

// WriteSeriesCSV renders every sample as one CSV row. Class columns
// are the sorted union of classes seen across all samples, so the
// header (and every byte) is deterministic.
func (o *Observer) WriteSeriesCSV(w io.Writer) error {
	samples := o.Samples()
	classSet := map[string]bool{}
	for _, s := range samples {
		for _, c := range s.Classes {
			classSet[c.Class] = true
		}
	}
	classes := make([]string, 0, len(classSet))
	for c := range classSet {
		classes = append(classes, c)
	}
	sort.Strings(classes)

	cw := csv.NewWriter(w)
	header := append([]string{}, seriesColumns...)
	for _, c := range classes {
		header = append(header, "att_req:"+c, "att_met:"+c)
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, 0, len(header))
	for _, s := range samples {
		row = append(row[:0],
			strconv.FormatFloat(float64(s.At)/float64(time.Millisecond), 'f', 3, 64),
			s.Track,
			strconv.Itoa(s.Desired), strconv.Itoa(s.Active),
			strconv.Itoa(s.Warming), strconv.Itoa(s.Draining),
			strconv.Itoa(s.Down), strconv.Itoa(s.Ejected),
			strconv.Itoa(s.QueuedRequests), strconv.Itoa(s.RunningRequests),
			strconv.FormatFloat(s.KVUtil, 'f', 4, 64),
			strconv.FormatFloat(s.CacheHitRate, 'f', 4, 64),
			strconv.FormatFloat(s.ShedRate, 'f', 4, 64),
			strconv.Itoa(s.BreakersOpen), strconv.Itoa(s.BreakersHalfOpen),
			strconv.Itoa(s.CloudRequests),
			strconv.FormatFloat(s.CloudSpend, 'f', 6, 64),
		)
		for _, c := range classes {
			ca := classIn(s.Classes, c)
			row = append(row, strconv.Itoa(ca.Requests), strconv.Itoa(ca.TTFTMet))
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// classIn returns the last entry of classes named class, or the zero
// attainment when the sample has none.
func classIn(classes []ClassAttainment, class string) ClassAttainment {
	for i := len(classes) - 1; i >= 0; i-- {
		if classes[i].Class == class {
			return classes[i]
		}
	}
	return ClassAttainment{}
}

// WriteSeriesJSON renders the samples as a JSON array.
func (o *Observer) WriteSeriesJSON(w io.Writer) error {
	samples := o.Samples()
	if samples == nil {
		samples = []Sample{}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(samples)
}

// ExportSeries writes the time series to path, choosing the format by
// extension: .json gets the JSON array, anything else CSV.
func (o *Observer) ExportSeries(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var werr error
	if strings.EqualFold(filepath.Ext(path), ".json") {
		werr = o.WriteSeriesJSON(f)
	} else {
		werr = o.WriteSeriesCSV(f)
	}
	if werr != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, werr)
	}
	return f.Close()
}
