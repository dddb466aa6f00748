package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"distinct/internal/eval"
)

// CSV exporters for every experiment, so the tables and figures can be
// re-plotted with external tooling. Each writer emits a header row and one
// record per data point.

// writeCSV writes header and then records.
func writeCSV(w io.Writer, header []string, records [][]string) error {
	return csv.NewWriter(w).WriteAll(append([][]string{header}, records...))
}

// writeAveragesCSV writes one record per row of a sweep: the row's own
// leading fields, then its average precision, recall and f-measure.
func writeAveragesCSV(w io.Writer, lead []string, n int, row func(i int) ([]string, eval.Metrics)) error {
	records := make([][]string, n)
	for i := range records {
		rec, m := row(i)
		records[i] = append(rec, f6(m.Precision), f6(m.Recall), f6(m.F1))
	}
	return writeCSV(w, append(lead, "precision", "recall", "f_measure"), records)
}

// WriteTable1CSV writes the ambiguous-name dataset.
func WriteTable1CSV(w io.Writer, rows []Table1Row) error {
	records := make([][]string, len(rows))
	for i, r := range rows {
		records[i] = []string{r.Name, strconv.Itoa(r.Authors), strconv.Itoa(r.Refs)}
	}
	return writeCSV(w, []string{"name", "authors", "refs"}, records)
}

// WriteTable2CSV writes per-name metrics plus the average row.
func WriteTable2CSV(w io.Writer, res *Table2Result) error {
	record := func(name string, m eval.Metrics) []string {
		return []string{name, f6(m.Precision), f6(m.Recall), f6(m.F1), f6(m.Accuracy)}
	}
	var records [][]string
	for _, row := range res.Rows {
		records = append(records, record(row.Name, row.Metrics))
	}
	records = append(records, record("average", res.Average))
	return writeCSV(w, []string{"name", "precision", "recall", "f_measure", "accuracy"}, records)
}

// WriteFigure4CSV writes the variant comparison (also used for ablations).
func WriteFigure4CSV(w io.Writer, rows []Figure4Row) error {
	records := make([][]string, len(rows))
	for i, r := range rows {
		records[i] = []string{r.Variant, f6(r.Accuracy), f6(r.F1), f6(r.MinSim)}
	}
	return writeCSV(w, []string{"variant", "accuracy", "f_measure", "min_sim"}, records)
}

// WriteScalingCSV writes the scaling curve.
func WriteScalingCSV(w io.Writer, rows []ScalingRow) error {
	records := make([][]string, len(rows))
	for i, r := range rows {
		records[i] = []string{
			strconv.Itoa(r.References),
			strconv.Itoa(r.Papers),
			fmt.Sprintf("%.1f", float64(r.TrainTime.Microseconds())/1000),
			fmt.Sprintf("%.1f", float64(r.Disambig.Microseconds())/1000),
			f6(r.AvgF1),
		}
	}
	return writeCSV(w, []string{"references", "papers", "train_ms", "disambiguate_ms", "avg_f"}, records)
}

// WriteNoiseCSV writes the noise-sensitivity rows.
func WriteNoiseCSV(w io.Writer, rows []NoiseRow) error {
	return writeAveragesCSV(w, []string{"cross_community_prob"}, len(rows), func(i int) ([]string, eval.Metrics) {
		return []string{strconv.FormatFloat(rows[i].CrossCommunityProb, 'g', -1, 64)}, rows[i].Average
	})
}

// WriteSeedsCSV writes the seed sweep.
func WriteSeedsCSV(w io.Writer, s *SeedSummary) error {
	return writeAveragesCSV(w, []string{"seed"}, len(s.Rows), func(i int) ([]string, eval.Metrics) {
		return []string{strconv.FormatInt(s.Rows[i].Seed, 10)}, s.Rows[i].Average
	})
}

// WriteTrainSizeCSV writes the training-size rows.
func WriteTrainSizeCSV(w io.Writer, rows []TrainSizeRow) error {
	return writeAveragesCSV(w, []string{"pairs_per_class", "svm_accuracy"}, len(rows), func(i int) ([]string, eval.Metrics) {
		return []string{strconv.Itoa(rows[i].PairsPerClass), f6(rows[i].ResemAccuracy)}, rows[i].Average
	})
}

func f6(v float64) string { return strconv.FormatFloat(v, 'f', 6, 64) }
