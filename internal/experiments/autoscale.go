package experiments

import (
	"fmt"

	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/workload"
)

// AutoscaleRow is one deployment on the GPU-hours vs goodput frontier:
// a provisioning strategy served against the shared diurnal trace.
type AutoscaleRow struct {
	// Deployment names the provisioning strategy.
	Deployment string
	// Replicas describes the replica budget ("4", "2", or "1..4").
	Replicas string
	// GPUHours is the provisioned GPU bill: replicas x world x wall
	// time for the static rows, the autoscaler's span accounting for
	// the elastic row.
	GPUHours float64
	// Report carries throughput, the latency digest, and — for the
	// elastic row — Report.Autoscale and Report.Admission.
	Report metrics.Report
}

// Replica budgets for the autoscaling study: the static-peak fleet
// holds autoscaleMax replicas for the whole run, static-mean holds
// autoscaleMean, and the elastic fleet breathes between 1 and
// autoscaleMax starting from autoscaleMean.
const (
	autoscaleMax  = 4
	autoscaleMean = 2
)

// Autoscale studies elastic provisioning on the 4xA100 + 70B fleet
// under a diurnal trace (two compressed day/night cycles whose peak
// offered load needs more than the mean fleet but less than the peak
// fleet). Three deployments serve the identical trace: static-peak
// (autoscaleMax replicas all run), static-mean (autoscaleMean), and
// elastic (an SLO-watching autoscaler between 1 and autoscaleMax, each
// scale-up paying the modeled weight-load cold start). The frontier
// question: does elasticity buy back GPU-hours without giving up
// goodput?
func Autoscale(e *Env) ([]AutoscaleRow, error) {
	cfg := sloConfig(e)

	// Calibrate: one replica's closed-loop makespan gives its service
	// rate; shape the diurnal curve so the peak needs ~70% of the peak
	// fleet (static-mean drowns, elastic must scale to follow).
	offline, err := calibrate("autoscale", cfg, e.Requests)
	if err != nil {
		return nil, err
	}
	srate := float64(len(e.Requests)) / offline.Elapsed
	mean := 0.7 * float64(autoscaleMax) * srate / 1.5
	period := float64(len(e.Requests)) / mean / 2
	proc := workload.Diurnal{BaseRate: 0.5 * mean, PeakRate: 1.5 * mean, Period: period}
	open := workload.StampArrivals(e.Requests, proc, e.Opts.Seed+83)

	static := func(name string, replicas int) (AutoscaleRow, error) {
		res, err := serve(e, cfg, open, fleet.LeastWork, fleet.ServeConfig{Replicas: replicas})
		if err != nil {
			return AutoscaleRow{}, err
		}
		return AutoscaleRow{
			Deployment: name,
			Replicas:   fmt.Sprintf("%d", replicas),
			GPUHours:   float64(replicas*cfg.World) * res.Report.Elapsed / 3600,
			Report:     res.Report,
		}, nil
	}

	peak, err := static("static-peak", autoscaleMax)
	if err != nil {
		return nil, err
	}
	meanRow, err := static("static-mean", autoscaleMean)
	if err != nil {
		return nil, err
	}

	// The elastic fleet starts provisioned for the mean and follows the
	// curve: scale up early (at half the TTFT SLO) so the cold start is
	// paid before the SLO is at risk, scale down only once the trough's
	// queue would stay comfortable on the smaller fleet.
	as, err := policy.NewAutoscaler(policy.AutoscalerConfig{
		Min:            1,
		Max:            autoscaleMax,
		Initial:        autoscaleMean,
		Interval:       period / 100,
		TTFTTarget:     cfg.SLO.TTFT / 2,
		ScaleUpQueue:   6,
		ScaleDownQueue: 2,
		UpCooldown:     period / 50,
		DownCooldown:   period / 10,
	})
	if err != nil {
		return nil, err
	}
	eres, err := serve(e, cfg, open, fleet.LeastWork, fleet.ServeConfig{Replicas: autoscaleMax, Stack: &policy.Stack{Autoscaler: as}})
	if err != nil {
		return nil, err
	}
	elastic := AutoscaleRow{
		Deployment: "elastic",
		Replicas:   fmt.Sprintf("1..%d", autoscaleMax),
		GPUHours:   eres.Report.Autoscale.GPUSeconds / 3600,
		Report:     eres.Report,
	}
	return []AutoscaleRow{peak, meanRow, elastic}, nil
}

// FormatAutoscale renders the GPU-hours vs goodput frontier.
func FormatAutoscale(rows []AutoscaleRow) string {
	header := []string{"deployment", "replicas", "gpu-hours", "out tok/s", "ttft p99 (s)", "goodput %", "scale up/down", "cold-start (s)"}
	var table [][]string
	for _, r := range rows {
		scale, cold := "-", "-"
		if a := r.Report.Autoscale; a.Any() {
			scale = fmt.Sprintf("%d/%d", a.ScaleUps, a.ScaleDowns)
			cold = fmt.Sprintf("%.0f", a.ColdStartSeconds)
		}
		table = append(table, []string{
			r.Deployment,
			r.Replicas,
			fmt.Sprintf("%.2f", r.GPUHours),
			fmt.Sprintf("%.0f", r.Report.OutputThroughput()),
			fmt.Sprintf("%.1f", r.Report.Latency.TTFTP99),
			fmt.Sprintf("%.1f", 100*r.Report.Latency.Goodput()),
			scale,
			cold,
		})
	}
	return renderTable(fmt.Sprintf("Autoscale: diurnal trace, static vs elastic provisioning (4xA100 + 70B, slo %s)",
		metrics.DefaultSLO()), header, table)
}
