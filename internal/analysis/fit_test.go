package analysis

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestFitModelExactPower(t *testing.T) {
	// cost = 3·n², fitted against the n² model: exponent 1, scale 3.
	var pts []Point
	for _, n := range []int{8, 16, 32, 64} {
		pts = append(pts, Point{N: n, M: 2 * n, Cost: 3 * float64(n) * float64(n)})
	}
	model := Model{"n^2", func(n, m int) float64 { return float64(n) * float64(n) }}
	fit, ok := FitModel(pts, model)
	if !ok {
		t.Fatal("fit failed")
	}
	if math.Abs(fit.Exponent-1) > 1e-9 || math.Abs(fit.Scale-3) > 1e-9 {
		t.Fatalf("exp=%v scale=%v", fit.Exponent, fit.Scale)
	}
	if fit.R2 < 0.9999 {
		t.Fatalf("R2=%v", fit.R2)
	}
}

func TestFitModelSubLinearGrowth(t *testing.T) {
	// cost = n fitted against n²: exponent 0.5.
	var pts []Point
	for _, n := range []int{8, 16, 32, 64} {
		pts = append(pts, Point{N: n, M: n, Cost: float64(n)})
	}
	model := Model{"n^2", func(n, m int) float64 { return float64(n) * float64(n) }}
	fit, ok := FitModel(pts, model)
	if !ok || math.Abs(fit.Exponent-0.5) > 1e-9 {
		t.Fatalf("fit=%+v ok=%v", fit, ok)
	}
}

func TestFitModelRejectsDegenerate(t *testing.T) {
	model := StandardModels()[0]
	if _, ok := FitModel(nil, model); ok {
		t.Fatal("empty input accepted")
	}
	if _, ok := FitModel([]Point{{N: 4, M: 4, Cost: 1}}, model); ok {
		t.Fatal("single point accepted")
	}
	same := []Point{{N: 4, M: 4, Cost: 1}, {N: 4, M: 8, Cost: 2}}
	if _, ok := FitModel(same, model); ok {
		t.Fatal("identical model values accepted")
	}
	zero := []Point{{N: 4, M: 4, Cost: 0}, {N: 8, M: 8, Cost: 0}}
	if _, ok := FitModel(zero, model); ok {
		t.Fatal("zero costs accepted")
	}
}

func TestBestFitPicksGeneratingModel(t *testing.T) {
	// Generate cost = m·n·log2(n): BestFit must rank that model first.
	var pts []Point
	for _, n := range []int{8, 16, 32, 64, 128} {
		m := 3 * n
		pts = append(pts, Point{N: n, M: m,
			Cost: float64(m) * float64(n) * math.Log2(float64(n))})
	}
	fits := BestFit(pts, StandardModels())
	if len(fits) == 0 {
		t.Fatal("no fits")
	}
	if fits[0].Model.Name != "m n log n" {
		t.Fatalf("best model %q, want m n log n (fits: %v)", fits[0].Model.Name, fits)
	}
	if !strings.Contains(fits[0].String(), "m n log n") {
		t.Fatal("String() missing model name")
	}
}

func TestStandardModelsMonotone(t *testing.T) {
	models := StandardModels()
	n, m := 64, 192
	prev := 0.0
	for i, mod := range models {
		v := mod.F(n, m)
		if v <= 0 {
			t.Fatalf("model %s nonpositive", mod.Name)
		}
		if i > 0 && v < prev {
			t.Fatalf("models not ordered at %s", mod.Name)
		}
		prev = v
	}
}

// Property: the log-log fit recovers a planted exponent within epsilon
// for arbitrary positive scales and exponents.
func TestQuickFitRecoversExponent(t *testing.T) {
	f := func(scaleSeed, expSeed uint8) bool {
		scale := 0.5 + float64(scaleSeed)/64.0
		exp := 0.25 + float64(expSeed%32)/16.0 // 0.25 .. 2.2
		var pts []Point
		for _, n := range []int{8, 16, 32, 64} {
			cost := scale * math.Pow(float64(n), exp)
			pts = append(pts, Point{N: n, M: n, Cost: cost})
		}
		model := Model{"n", func(n, m int) float64 { return float64(n) }}
		fit, ok := FitModel(pts, model)
		return ok && math.Abs(fit.Exponent-exp) < 1e-6 && math.Abs(fit.Scale-scale) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
