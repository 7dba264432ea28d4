// Package analysis fits measured costs against candidate complexity
// models by log-log least squares: the shape check of Lemma 5 behind
// `mdstbench -exp fit`.
package analysis

import (
	"fmt"
	"math"
	"sort"
)

// Point is one measurement: the workload parameters and the measured
// cost (rounds, messages, ...).
type Point struct {
	N, M int
	Cost float64
}

// Model is a candidate complexity function of (n, m).
type Model struct {
	Name string
	F    func(n, m int) float64
}

// StandardModels returns the candidate set used to classify measured
// growth, ordered from slowest- to fastest-growing on connected graphs.
func StandardModels() []Model {
	return []Model{
		{"n", func(n, m int) float64 { return float64(n) }},
		{"n log n", func(n, m int) float64 { return float64(n) * math.Log2(float64(n)) }},
		{"n^2", func(n, m int) float64 { return float64(n) * float64(n) }},
		{"m n", func(n, m int) float64 { return float64(m) * float64(n) }},
		{"m n log n", func(n, m int) float64 { return float64(m) * float64(n) * math.Log2(float64(n)) }},
		{"m n^2 log n", func(n, m int) float64 {
			return float64(m) * float64(n) * float64(n) * math.Log2(float64(n))
		}},
	}
}

// Fit is the result of regressing log(cost) = a + b·log(model).
type Fit struct {
	Model Model
	// Exponent b: b ≈ 1 means the model matches the growth; b < 1 means
	// the cost grows slower than the model.
	Exponent float64
	// Scale is e^a, the constant factor.
	Scale float64
	// R2 is the coefficient of determination of the log-log regression.
	R2 float64
}

// FitModel regresses the points against one model in log-log space.
// It requires at least two points with distinct model values and
// positive costs; otherwise ok is false.
func FitModel(points []Point, model Model) (Fit, bool) {
	var xs, ys []float64
	for _, p := range points {
		mv := model.F(p.N, p.M)
		if mv <= 0 || p.Cost <= 0 {
			continue
		}
		xs = append(xs, math.Log(mv))
		ys = append(ys, math.Log(p.Cost))
	}
	if len(xs) < 2 {
		return Fit{}, false
	}
	distinct := false
	for i := 1; i < len(xs); i++ {
		if xs[i] != xs[0] {
			distinct = true
			break
		}
	}
	if !distinct {
		return Fit{}, false
	}
	a, b, r2 := linreg(xs, ys)
	return Fit{Model: model, Exponent: b, Scale: math.Exp(a), R2: r2}, true
}

// linreg computes the least-squares line y = a + b x and R².
func linreg(xs, ys []float64) (a, b, r2 float64) {
	n := float64(len(xs))
	var sx, sy, sxx, sxy, syy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
		syy += ys[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return sy / n, 0, 0
	}
	b = (n*sxy - sx*sy) / den
	a = (sy - b*sx) / n
	// R² from the correlation coefficient.
	cd := (n*sxx - sx*sx) * (n*syy - sy*sy)
	if cd <= 0 {
		return a, b, 1 // degenerate: all y equal
	}
	r := (n*sxy - sx*sy) / math.Sqrt(cd)
	return a, b, r * r
}

// BestFit tries all models and returns them sorted by how close the
// exponent is to 1 with R² as tiebreak — the model whose growth most
// resembles the data comes first.
func BestFit(points []Point, models []Model) []Fit {
	var fits []Fit
	for _, m := range models {
		if f, ok := FitModel(points, m); ok {
			fits = append(fits, f)
		}
	}
	sort.Slice(fits, func(i, j int) bool {
		di := math.Abs(fits[i].Exponent - 1)
		dj := math.Abs(fits[j].Exponent - 1)
		if di != dj {
			return di < dj
		}
		return fits[i].R2 > fits[j].R2
	})
	return fits
}

// String renders a fit line.
func (f Fit) String() string {
	return fmt.Sprintf("cost ≈ %.3g·(%s)^%.2f (R²=%.3f)", f.Scale, f.Model.Name, f.Exponent, f.R2)
}
