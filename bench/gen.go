package main

import (
	"encoding/json"
	"fmt"

	"cannikin"
	"cannikin/internal/rng"
)

// Every input the workloads see is generated here from -seed: the dataset
// seed of each training call, the served job stream, and the list of
// simulated runs. The programs under test receive only these values.

// mlpShape is the fixed part of an mlp_* workload. Shapes never depend on
// the seed; only MLPConfig.Seed (dataset, init weights, batch order) does.
type mlpShape struct {
	cfg cannikin.MLPConfig
	// epochs per call and the accuracy that counts as the target, chosen
	// once so the target is first met between 30% and 70% of a call.
	epochs int
	target float64
	tcp    bool
}

var mlpShapes = map[string]mlpShape{
	"mlp_compute": {
		cfg: cannikin.MLPConfig{
			LocalBatches: []int{48, 16}, Hidden: []int{256, 256}, Dim: 64, Classes: 16, Samples: 512,
			Noise: 2.0, LearningRate: 0.0075, Backend: "live",
		},
		epochs: 16, target: 0.80,
	},
	"mlp_comm": {cfg: commConfig("live"), epochs: 12, target: 0.86},
	"mlp_tcp":  {cfg: commConfig(""), epochs: 12, target: 0.86, tcp: true},
}

func commConfig(backend string) cannikin.MLPConfig {
	return cannikin.MLPConfig{
		LocalBatches: []int{3, 2, 2, 1}, Hidden: []int{512, 512}, Dim: 64, Classes: 16, Samples: 64,
		Noise: 2.0, LearningRate: 0.00075, Allreduce: "auto", Backend: backend,
	}
}

// mlpCall returns the config of the i-th training call of a workload.
func mlpCall(workload string, seed uint64, i int) cannikin.MLPConfig {
	shape := mlpShapes[workload]
	cfg := shape.cfg
	cfg.Epochs = shape.epochs
	// mlp_tcp draws the same stream as mlp_comm: the pair differs in
	// transport only.
	label := workload
	if shape.tcp {
		label = "mlp_comm"
	}
	cfg.Seed = rng.New(seed).Split(label).Split(fmt.Sprintf("call-%d", i)).Uint64()
	return cfg
}

// jobSpec is the JSON body of one served job. Field names are runspec's.
type jobSpec struct {
	MLP        bool   `json:"mlp"`
	Backend    string `json:"backend"`
	Epochs     int    `json:"epochs"`
	Seed       uint64 `json:"seed"`
	MLPBatches []int  `json:"mlp_batches"`
}

// jobBatches is the cycle of local-batch vectors the job stream walks:
// widths 1,2,3 (so on a 3-device pool about half the submissions queue
// behind the other client's grant), heterogeneous within a job, and the
// same global batch of 24 throughout, so every job takes the same number
// of steps and the epoch-gap distribution has one mode. The cycle is fixed:
// the seed only picks each job's data, initial weights and batch order.
var jobBatches = [][]int{{24}, {16, 8}, {12, 8, 4}, {24}, {8, 16}, {4, 8, 12}}

// jobBody returns the i-th job of the stream: a two-epoch live MLP spec.
func jobBody(seed uint64, i int) []byte {
	src := rng.New(seed).Split("serve_jobs").Split(fmt.Sprintf("job-%d", i))
	body, err := json.Marshal(jobSpec{
		MLP: true, Backend: "live", Epochs: 2,
		Seed: src.Uint64(), MLPBatches: jobBatches[i%len(jobBatches)],
	})
	if err != nil {
		panic(err) // a struct of ints and strings always marshals
	}
	return body
}

// simRun returns the i-th simulated run: the list cycles through cluster
// presets b,c x workloads cifar10,imagenet, with a fresh seed per group of
// four.
func simRun(seed uint64, i int) cannikin.TrainConfig {
	clusters := []string{"b", "c"}
	tasks := []string{"cifar10", "imagenet"}
	group, slot := i/4, i%4
	return cannikin.TrainConfig{
		Cluster:  cannikin.ClusterConfig{Preset: clusters[slot/2]},
		Workload: tasks[slot%2],
		System:   cannikin.SystemCannikin,
		Seed:     rng.New(seed).Split("plan_sim").Split(fmt.Sprintf("group-%d", group)).Uint64(),
	}
}
