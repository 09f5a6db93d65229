package borg

import (
	"errors"
	"time"

	"borg/internal/ml"
	"borg/internal/obs"
)

// modelKinds are the zoo's model kinds in the spelling the serving API
// uses; the per-kind training series pre-register under these labels so
// a scrape shows the whole zoo even before the first training.
var modelKinds = []string{"linreg", "polyreg", "pca", "kmeans", "chowliu", "ctree", "svm"}

// modelObs instruments the model zoo: per-kind training latency and
// counts, plus typed-error counters classed by what went wrong (empty
// snapshot, payload not maintained, other). The success and
// gradient-descent handles resolve once, in newModelObs; only the rare
// error counters resolve through the registry. A nil *modelObs disables
// instrumentation — the snapshots of an uninstrumented server carry nil.
type modelObs struct {
	reg      *obs.Registry
	trains   map[string]*obs.Counter   // by kind
	trainNs  map[string]*obs.Histogram // by kind
	gdIters  *obs.Histogram
	gdUnconv *obs.Counter
}

const (
	trainNsHelp    = "Nanoseconds per snapshot model training, by model kind."
	trainTotalHelp = "Completed snapshot model trainings, by model kind."
	trainErrsHelp  = "Failed snapshot model trainings, by kind and error class (empty, payload, other)."
	gdItersHelp    = "Gradient steps per linreg training."
	gdUnconvHelp   = "Linreg trainings that exhausted GDOptions.MaxIters: the model is a truncation, not a minimizer."
)

// newModelObs binds the zoo series into reg, pre-registering the
// success series of every kind and the gradient-descent pair.
func newModelObs(reg *obs.Registry) *modelObs {
	o := &modelObs{
		reg:      reg,
		trains:   make(map[string]*obs.Counter, len(modelKinds)),
		trainNs:  make(map[string]*obs.Histogram, len(modelKinds)),
		gdIters:  reg.Histogram("borg_model_gd_iterations", gdItersHelp, nil),
		gdUnconv: reg.Counter("borg_model_gd_unconverged_total", gdUnconvHelp, nil),
	}
	for _, kind := range modelKinds {
		o.trains[kind] = reg.Counter("borg_model_train_total", trainTotalHelp, obs.Labels{"kind": kind})
		o.trainNs[kind] = reg.Histogram("borg_model_train_ns", trainNsHelp, obs.Labels{"kind": kind})
	}
	return o
}

// obsTrain records one training outcome; defer it with the trainer's
// named error so success timing and error classing share one site:
//
//	func (s *ServerSnapshot) TrainX(...) (m *X, err error) {
//		defer s.obsTrain("x", time.Now(), &err)
func (s *ServerSnapshot) obsTrain(kind string, start time.Time, errp *error) {
	o := s.obs
	if o == nil {
		return
	}
	if err := *errp; err != nil {
		class := "other"
		switch {
		case errors.Is(err, ErrEmptySnapshot):
			class = "empty"
		case errors.Is(err, ErrPayloadNotMaintained):
			class = "payload"
		}
		o.reg.Counter("borg_model_train_errors_total", trainErrsHelp, obs.Labels{"kind": kind, "class": class}).Inc()
		return
	}
	o.trains[kind].Inc()
	o.trainNs[kind].Observe(int64(time.Since(start)))
}

// obsGD records how one gradient-descent training ended, so a truncated
// model shows on a scrape without anyone reading Converged().
func (s *ServerSnapshot) obsGD(m *ml.LinReg) {
	if o := s.obs; o != nil {
		o.gdIters.Observe(int64(m.Iterations))
		if !m.Converged {
			o.gdUnconv.Inc()
		}
	}
}
