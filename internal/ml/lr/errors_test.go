package lr

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/ps"
	"repro/internal/rdd"
	"repro/internal/simnet"
)

// TestTrainSurfacesServerDown: with recovery off and a server that stays
// down, the first driver-side write to the model cannot land. The entry
// point must return an error wrapping ps.ErrServerDown instead of panicking
// the whole run.
func TestTrainSurfacesServerDown(t *testing.T) {
	ds := smallDataset(t, 200, 50)
	dim := ds.Config.Dim
	cases := []struct {
		name  string
		train func(p *simnet.Proc, e *core.Engine, r *rdd.RDD[data.Instance]) error
	}{
		{"warm-start", func(p *simnet.Proc, e *core.Engine, r *rdd.RDD[data.Instance]) error {
			cfg := DefaultConfig()
			cfg.Iterations = 2
			cfg.WarmStart = make([]float64, dim)
			_, err := Train(p, e, r, dim, cfg, NewAdam())
			return err
		}},
		{"lbfgs", func(p *simnet.Proc, e *core.Engine, r *rdd.RDD[data.Instance]) error {
			cfg := DefaultLBFGSConfig()
			cfg.Iterations = 2
			_, err := TrainLBFGS(p, e, r, dim, cfg)
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := newEngine(2, 2)
			r := loadRDD(e, ds)
			e.PS.Retry = ps.RetryConfig{TimeoutSec: 0.01, BackoffSec: 0.005, MaxBackoffSec: 0.05, MaxRetries: 3}
			e.PS.KillServer(0)
			var err error
			e.Run(func(p *simnet.Proc) { err = tc.train(p, e, r) })
			if !errors.Is(err, ps.ErrServerDown) {
				t.Fatalf("server 0 down, no recovery: err = %v, want ErrServerDown", err)
			}
		})
	}
}
