package model

import "fmt"

// Stage describes the slice of a model owned by one pipeline stage.
type Stage struct {
	// Index is the stage rank, 0-based.
	Index int
	// Layers is the number of transformer blocks on this stage.
	Layers int
	// HasEmbed marks the first stage (token embedding lookup).
	HasEmbed bool
	// HasHead marks the last stage (final norm + LM head).
	HasHead bool
}

// PipelinePlan is a partition of a model over pipeline stages.
type PipelinePlan struct {
	Model  Spec
	Stages []Stage
}

// Partition splits the model's layers over stages pipeline stages as
// evenly as possible (remainder layers go to the earliest stages, as
// vLLM does), with the embedding on stage 0 and the LM head on the last
// stage.
func Partition(m Spec, stages int) (PipelinePlan, error) {
	if stages <= 0 {
		return PipelinePlan{}, fmt.Errorf("model: partition over %d stages", stages)
	}
	if stages > m.Layers {
		return PipelinePlan{}, fmt.Errorf("model: %d stages for %d layers", stages, m.Layers)
	}
	base, rem := m.Layers/stages, m.Layers%stages
	plan := PipelinePlan{Model: m, Stages: make([]Stage, stages)}
	for i := range plan.Stages {
		l := base
		if i < rem {
			l++
		}
		plan.Stages[i] = Stage{
			Index:    i,
			Layers:   l,
			HasEmbed: i == 0,
			HasHead:  i == stages-1,
		}
	}
	return plan, nil
}

// StageParams returns the parameter count hosted by stage st.
func (p PipelinePlan) StageParams(st int) float64 {
	s := p.Stages[st]
	params := float64(s.Layers) * p.Model.LayerParams()
	if s.HasEmbed {
		params += p.Model.EmbedParams() / 2
	}
	if s.HasHead {
		params += p.Model.EmbedParams() / 2
	}
	return params
}

// StageWeightBytes returns weight bytes hosted by stage st.
func (p PipelinePlan) StageWeightBytes(st int) float64 {
	return p.StageParams(st) * float64(p.Model.BytesPerParam)
}

// StageKVBytesPerToken returns per-token KV bytes held by stage st.
func (p PipelinePlan) StageKVBytesPerToken(st int) float64 {
	return float64(p.Stages[st].Layers) * p.Model.KVBytesPerTokenLayer()
}

// ActivationBytes returns the bytes of the hidden-state activation
// handed between stages for a microbatch of tokens tokens.
func (m Spec) ActivationBytes(tokens int) float64 {
	return float64(tokens) * float64(m.Hidden) * float64(m.BytesPerParam)
}

// TPShard describes the per-GPU share of a tensor-parallel deployment:
// every layer is split across all GPUs, so each rank holds 1/World of
// the weights and of the KV cache.
type TPShard struct {
	Model Spec
	World int
}

// TensorParallel returns the per-rank shard for a world-size deployment.
func TensorParallel(m Spec, world int) (TPShard, error) {
	if world <= 0 {
		return TPShard{}, fmt.Errorf("model: tensor parallel world %d", world)
	}
	if m.Heads%world != 0 {
		return TPShard{}, fmt.Errorf("model: %d heads not divisible by world %d", m.Heads, world)
	}
	return TPShard{Model: m, World: world}, nil
}

// RankWeightBytes returns weight bytes per GPU.
func (t TPShard) RankWeightBytes() float64 {
	return t.Model.WeightBytes() / float64(t.World)
}

// RankKVBytesPerToken returns per-token KV bytes per GPU.
func (t TPShard) RankKVBytesPerToken() float64 {
	return t.Model.KVBytesPerToken() / float64(t.World)
}
