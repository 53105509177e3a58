// End-to-end pipeline — the paper's core pitch: "users can deal with large
// datasets and train ML models in a single system". A raw click log is
// cleaned and featurized with dataflow operators (FlatMap + ReduceByKey with
// a real shuffle, as Spark jobs do), the frequency-pruned feature vocabulary
// is broadcast, training instances are assembled per user, and logistic
// regression trains on the parameter servers — all inside one engine, no
// data export between systems.
//
//	go run ./examples/pipeline
package main

import (
	"fmt"
	"log"
	"sort"

	ps2 "repro"
	"repro/internal/data"
	"repro/internal/linalg"
	"repro/internal/ml/lr"
	"repro/internal/rdd"
)

// event is one raw log line: a user interacted with an item and either
// converted or not.
type event struct {
	User      int32
	Item      int32
	Converted bool
}

func main() {
	const users, items = 3000, 2000
	events := generateLog(users, items, 60000, 99)
	fmt.Printf("raw log: %d events, %d users, %d items\n", len(events), users, items)

	opt := ps2.DefaultOptions()
	opt.Executors, opt.Servers = 8, 8
	engine := ps2.NewEngine(opt)

	var acc float64
	var kept int
	end := engine.Run(func(p *ps2.Proc) {
		// Stage 1 — dataflow preprocessing. Load the log, count item
		// frequencies with a shuffle, and keep items seen at least 5 times
		// (frequency pruning, the classic CTR-feature cleanup).
		logRDD := rdd.FromSlices(engine.RDD, partitionEvents(events, 8)).Cache()
		itemCounts := rdd.ReduceByKey(p,
			rdd.Map(logRDD, func(e event) rdd.Pair[int32, int] { return rdd.Pair[int32, int]{Key: e.Item, Value: 1} }),
			8, 12,
			func(k int32) int { return int(k) },
			func(a, b int) int { return a + b })
		counted := rdd.Collect(p, itemCounts, 12)
		vocab := map[int32]int{}
		for _, kv := range counted {
			if kv.Value >= 5 {
				vocab[kv.Key] = 0
			}
		}
		ids := make([]int32, 0, len(vocab))
		for item := range vocab {
			ids = append(ids, item)
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		for i, item := range ids {
			vocab[item] = i
		}
		kept = len(vocab)
		// Broadcast the pruned vocabulary to the executors.
		engine.RDD.Broadcast(p, float64(len(vocab))*8)

		// Stage 2 — per-user training instances: bag of interacted items,
		// label = did the user ever convert.
		type userAgg struct {
			items     map[int]float64
			converted bool
		}
		perUser := rdd.ReduceByKey(p,
			rdd.Map(logRDD, func(e event) rdd.Pair[int32, userAgg] {
				ua := userAgg{items: map[int]float64{}}
				if col, ok := vocab[e.Item]; ok {
					ua.items[col] = 1
				}
				ua.converted = e.Converted
				return rdd.Pair[int32, userAgg]{Key: e.User, Value: ua}
			}),
			8, 64,
			func(k int32) int { return int(k) },
			func(a, b userAgg) userAgg {
				for c, v := range b.items {
					a.items[c] = v
				}
				a.converted = a.converted || b.converted
				return a
			})
		instances := rdd.Map(perUser, func(kv rdd.Pair[int32, userAgg]) data.Instance {
			idx := make([]int, 0, len(kv.Value.items))
			for c := range kv.Value.items {
				idx = append(idx, c)
			}
			sort.Ints(idx)
			vals := make([]float64, len(idx))
			for i := range vals {
				vals[i] = 1
			}
			sv, err := linalg.NewSparse(idx, vals)
			if err != nil {
				log.Fatal(err)
			}
			label := 0.0
			if kv.Value.converted {
				label = 1
			}
			return data.Instance{Features: sv, Label: label}
		})

		// Stage 3 — train on the parameter servers, same engine.
		cfg := lr.DefaultConfig()
		cfg.Iterations = 40
		cfg.BatchFraction = 0.5
		cfg.LearningRate = 0.3
		model, err := lr.Train(p, engine, instances.Cache(), kept, cfg, lr.NewAdam())
		if err != nil {
			log.Fatal(err)
		}
		w, err := model.Weights.TryPull(p, engine.Driver())
		if err != nil {
			log.Fatal(err)
		}
		all := rdd.Collect(p, instances, 64)
		acc = lr.Accuracy(all, w)
	})

	fmt.Printf("pruned vocabulary: %d of %d items kept\n", kept, items)
	fmt.Printf("pipeline (shuffle -> featurize -> PS training) finished in %.2fs simulated\n", end)
	fmt.Printf("training accuracy: %.1f%%\n", 100*acc)
}

// generateLog synthesizes a click log where conversion depends on touching
// any of a hidden set of "good" items.
func generateLog(users, items, n int, seed uint64) []event {
	rng := linalg.NewRNG(seed)
	good := map[int32]bool{}
	for len(good) < items/20 {
		good[int32(rng.Intn(items))] = true
	}
	converted := map[int32]bool{}
	events := make([]event, n)
	for i := range events {
		u := int32(rng.Intn(users))
		it := int32(rng.Zipf(items, 1.05))
		if good[it] && rng.Float64() < 0.7 {
			converted[u] = true
		}
		events[i] = event{User: u, Item: it}
	}
	for i := range events {
		events[i].Converted = converted[events[i].User] && rng.Float64() < 0.9
	}
	return events
}

func partitionEvents(events []event, n int) [][]event {
	out := make([][]event, n)
	for i, e := range events {
		out[i%n] = append(out[i%n], e)
	}
	return out
}
