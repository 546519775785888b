//! The real Rust reference inference engine.

use fpgaccel_tensor::graph::Graph;
use fpgaccel_tensor::models::Model;
use fpgaccel_tensor::Tensor;
use std::time::Instant;

/// A CPU reference engine: executes the (fused) network graph with the
/// multithreaded operators of `fpgaccel-tensor`. This is the functional
/// ground truth every simulated deployment is verified against, and it
/// yields genuinely *measured* host FPS for the bench harness.
pub struct ReferenceEngine {
    graph: Graph,
    flops: u64,
}

impl ReferenceEngine {
    /// Builds the engine for a model (graph is fused, like TF/TVM would).
    pub fn new(model: Model) -> Self {
        let graph = model.build().fuse();
        let flops = fpgaccel_tensor::flops::graph_flops(&graph);
        ReferenceEngine { graph, flops }
    }

    /// Wraps an existing graph.
    pub fn from_graph(graph: Graph) -> Self {
        let flops = fpgaccel_tensor::flops::graph_flops(&graph);
        ReferenceEngine { graph, flops }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// FLOPs per forward pass.
    pub fn flops(&self) -> u64 {
        self.flops
    }

    /// One forward pass.
    pub fn infer(&self, input: &Tensor) -> Tensor {
        self.graph.execute(input)
    }

    /// Classifies an input (argmax over the output probabilities).
    pub fn classify(&self, input: &Tensor) -> usize {
        self.infer(input).argmax()
    }

    /// Measures wall-clock FPS over `n` forward passes of `input`.
    /// Returns `(fps, gflops)`.
    pub fn measure_fps(&self, input: &Tensor, n: usize) -> (f64, f64) {
        assert!(n > 0, "need at least one pass");
        let t0 = Instant::now();
        let mut sink = 0.0f32;
        for _ in 0..n {
            sink += self.infer(input).data()[0];
        }
        let dt = t0.elapsed().as_secs_f64();
        std::hint::black_box(sink);
        let fps = n as f64 / dt;
        (fps, fps * self.flops as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpgaccel_tensor::data;

    #[test]
    fn lenet_produces_probabilities() {
        let e = ReferenceEngine::new(Model::LeNet5);
        let out = e.infer(&data::synthetic_digit(3, 0));
        assert_eq!(out.numel(), 10);
        assert!((out.sum() - 1.0).abs() < 1e-5);
        assert!(out.all_finite());
    }

    #[test]
    fn classification_is_deterministic() {
        let e = ReferenceEngine::new(Model::LeNet5);
        let x = data::synthetic_digit(7, 1);
        assert_eq!(e.classify(&x), e.classify(&x));
    }

    #[test]
    fn fps_measurement_is_positive() {
        let e = ReferenceEngine::new(Model::LeNet5);
        let (fps, gflops) = e.measure_fps(&data::synthetic_digit(0, 0), 3);
        assert!(fps > 0.0);
        assert!(gflops > 0.0);
    }

    #[test]
    fn fused_engine_matches_unfused_graph() {
        let g = Model::LeNet5.build();
        let x = data::synthetic_digit(5, 2);
        let unfused = g.execute(&x);
        let fused = ReferenceEngine::new(Model::LeNet5).infer(&x);
        assert!(fpgaccel_tensor::allclose(&unfused, &fused, 1e-5, 1e-6));
    }
}
