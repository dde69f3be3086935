//! Parameters and optimizers (SGD and Adam).

use crate::matrix::Matrix;

/// A trainable parameter: value plus accumulated gradient.
#[derive(Debug, Clone)]
pub struct Param {
    pub value: Matrix,
    pub grad: Matrix,
}

impl Param {
    pub fn new(value: Matrix) -> Self {
        let grad = Matrix::zeros(value.rows(), value.cols());
        Param { value, grad }
    }

    /// Zero the accumulated gradient (keeps the allocation).
    pub fn zero_grad(&mut self) {
        self.grad.fill_zero();
    }
}

/// An optimizer updates a parameter set from its gradients.
pub trait Optimizer {
    /// Apply one update step and zero the gradients.
    fn step(&mut self, params: &mut [&mut Param]);
}

/// Plain stochastic gradient descent.
#[derive(Debug, Clone)]
pub struct Sgd {
    pub lr: f32,
}

impl Sgd {
    pub fn new(lr: f32) -> Self {
        Sgd { lr }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [&mut Param]) {
        for p in params.iter_mut() {
            let lr = self.lr;
            p.value.add_scaled(&p.grad, -lr);
            p.zero_grad();
        }
    }
}

/// Adam (Kingma & Ba), the optimizer the paper's training recipes use.
#[derive(Debug, Clone)]
pub struct Adam {
    pub lr: f32,
    pub beta1: f32,
    pub beta2: f32,
    pub eps: f32,
    t: u64,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
}

impl Adam {
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Serialize the full optimizer state — hyperparameters, step count,
    /// and both moment vectors — so a resumed run continues the exact
    /// trajectory (bias correction depends on `t`, updates on `m`/`v`).
    pub fn save(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&self.lr.to_le_bytes());
        out.extend_from_slice(&self.beta1.to_le_bytes());
        out.extend_from_slice(&self.beta2.to_le_bytes());
        out.extend_from_slice(&self.eps.to_le_bytes());
        out.extend_from_slice(&self.t.to_le_bytes());
        out.extend_from_slice(&(self.m.len() as u64).to_le_bytes());
        for mat in self.m.iter().chain(self.v.iter()) {
            out.extend_from_slice(&mat.to_bytes());
        }
        out
    }

    /// Rebuild an optimizer from an [`Adam::save`] blob.
    pub fn load(bytes: &[u8]) -> Result<Adam, String> {
        if bytes.len() < 32 {
            return Err("truncated optimizer state".into());
        }
        let f = |o: usize| f32::from_le_bytes(bytes[o..o + 4].try_into().unwrap());
        let t = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
        let n = u64::from_le_bytes(bytes[24..32].try_into().unwrap()) as usize;
        let mut pos = 32;
        let mut mats = Vec::with_capacity(2 * n);
        for _ in 0..2 * n {
            let (m, used) = Matrix::from_bytes(&bytes[pos..]).ok_or("truncated optimizer state")?;
            mats.push(m);
            pos += used;
        }
        if pos != bytes.len() {
            return Err("trailing bytes in optimizer state".into());
        }
        let v = mats.split_off(n);
        Ok(Adam {
            lr: f(0),
            beta1: f(4),
            beta2: f(8),
            eps: f(12),
            t,
            m: mats,
            v,
        })
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [&mut Param]) {
        if self.m.is_empty() {
            for p in params.iter() {
                self.m.push(Matrix::zeros(p.value.rows(), p.value.cols()));
                self.v.push(Matrix::zeros(p.value.rows(), p.value.cols()));
            }
        }
        assert_eq!(self.m.len(), params.len(), "parameter set changed");
        self.t += 1;
        let step = AdamStep {
            lr: self.lr,
            beta1: self.beta1,
            beta2: self.beta2,
            eps: self.eps,
            b1t: 1.0 - self.beta1.powi(self.t as i32),
            b2t: 1.0 - self.beta2.powi(self.t as i32),
        };
        for ((p, m), v) in params.iter_mut().zip(&mut self.m).zip(&mut self.v) {
            let (value, grad) = (p.value.data_mut(), p.grad.data_mut());
            // The pass zips the four, so a mismatch would skip elements.
            let len = value.len();
            assert!(
                grad.len() == len && m.data().len() == len && v.data().len() == len,
                "parameter shape changed"
            );
            step.update(value, grad, m.data_mut(), v.data_mut());
        }
    }
}

/// One Adam step's scalars: the hyperparameters and both bias corrections.
#[derive(Clone, Copy)]
struct AdamStep {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    b1t: f32,
    b2t: f32,
}

impl AdamStep {
    /// Update one parameter and zero its gradient in one pass over the
    /// elements: both moments, the bias-corrected step (`(lr·m̂) / (√v̂ + ε)`,
    /// with `v` fed `((1 − β2)·g)·g`), and the gradient zeroed behind it.
    /// Each element's operations and their order are the textbook update's.
    fn update(self, value: &mut [f32], grad: &mut [f32], m: &mut [f32], v: &mut [f32]) {
        for (((w, g), m), v) in value.iter_mut().zip(grad).zip(m).zip(v) {
            let g = std::mem::take(g);
            *m = self.beta1 * *m + (1.0 - self.beta1) * g;
            *v = self.beta2 * *v + (1.0 - self.beta2) * g * g;
            let mhat = *m / self.b1t;
            let vhat = *v / self.b2t;
            *w -= self.lr * mhat / (vhat.sqrt() + self.eps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimize f(w) = (w - 3)² with each optimizer; both must converge.
    fn run(opt: &mut dyn Optimizer, steps: usize, lr_tolerant: f32) -> f32 {
        let mut p = Param::new(Matrix::zeros(1, 1));
        for _ in 0..steps {
            let w = p.value.get(0, 0);
            p.grad.set(0, 0, 2.0 * (w - 3.0));
            opt.step(&mut [&mut p]);
        }
        let w = p.value.get(0, 0);
        assert!((w - 3.0).abs() < lr_tolerant, "did not converge: w = {w}");
        w
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        run(&mut Sgd::new(0.1), 100, 1e-3);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        run(&mut Adam::new(0.1), 500, 1e-2);
    }

    #[test]
    fn step_zeroes_gradients() {
        let mut p = Param::new(Matrix::zeros(2, 2));
        p.grad.set(0, 0, 1.0);
        let mut opt = Sgd::new(0.01);
        opt.step(&mut [&mut p]);
        assert_eq!(p.grad.data(), &[0.0; 4]);
        assert!(p.value.get(0, 0) < 0.0);
    }

    /// Saving mid-run and resuming must continue the identical trajectory:
    /// N steps straight equals k steps + save/load + N−k steps, bit for bit.
    #[test]
    fn adam_save_load_resumes_exact_trajectory() {
        let drive = |opt: &mut Adam, p: &mut Param, steps: usize| {
            for s in 0..steps {
                let w = p.value.get(0, 0);
                p.grad.set(0, 0, 2.0 * (w - 3.0) + s as f32 * 0.01);
                opt.step(&mut [&mut *p]);
            }
        };
        let mut straight = Adam::new(0.05);
        let mut pw = Param::new(Matrix::zeros(1, 1));
        drive(&mut straight, &mut pw, 40);

        let mut first = Adam::new(0.05);
        let mut pv = Param::new(Matrix::zeros(1, 1));
        drive(&mut first, &mut pv, 15);
        let blob = first.save();
        let mut resumed = Adam::load(&blob).unwrap();
        assert_eq!(resumed.save(), blob, "round-trip must be lossless");
        // The resumed half must replay steps 15..40 of the same schedule.
        for s in 15..40 {
            let w = pv.value.get(0, 0);
            pv.grad.set(0, 0, 2.0 * (w - 3.0) + s as f32 * 0.01);
            resumed.step(&mut [&mut pv]);
        }
        assert_eq!(pw.value.get(0, 0).to_bits(), pv.value.get(0, 0).to_bits());
    }

    /// The fused pass reproduces the two-loop update it replaced, bit for
    /// bit.
    #[test]
    fn fused_update_matches_the_two_loop_reference() {
        let mut rng = gnndrive_sync::rng::Rng::seed_from_u64(9);
        let len = if cfg!(miri) { 19 } else { 1003 };
        let mut draw = || match rng.below(8) {
            0 => 0.0,
            1 => f32::from_bits(1 + rng.below(1 << 20) as u32),
            _ => rng.f32(-3.0..3.0),
        };
        let value: Vec<f32> = (0..len).map(|_| draw()).collect();
        let grad: Vec<f32> = (0..len).map(|_| draw()).collect();
        let m0: Vec<f32> = (0..len).map(|_| draw()).collect();
        let v0: Vec<f32> = (0..len).map(|_| draw().abs()).collect();
        let step = AdamStep {
            lr: 0.003,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            b1t: 1.0 - 0.9f32.powi(7),
            b2t: 1.0 - 0.999f32.powi(7),
        };
        let (mut want_w, mut want_m, mut want_v) = (value.clone(), m0.clone(), v0.clone());
        for (j, &g) in grad.iter().enumerate() {
            want_m[j] = step.beta1 * want_m[j] + (1.0 - step.beta1) * g;
            want_v[j] = step.beta2 * want_v[j] + (1.0 - step.beta2) * g * g;
        }
        for (j, w) in want_w.iter_mut().enumerate() {
            let mhat = want_m[j] / step.b1t;
            let vhat = want_v[j] / step.b2t;
            *w -= step.lr * mhat / (vhat.sqrt() + step.eps);
        }
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let (mut w, mut g, mut m, mut v) = (value, grad, m0, v0);
        step.update(&mut w, &mut g, &mut m, &mut v);
        assert_eq!(bits(&w), bits(&want_w), "value");
        assert_eq!(bits(&m), bits(&want_m), "m");
        assert_eq!(bits(&v), bits(&want_v), "v");
        assert!(g.iter().all(|&g| g.to_bits() == 0), "grad zeroed");
    }

    #[test]
    fn adam_load_rejects_malformed_blobs() {
        assert!(Adam::load(&[0u8; 8]).is_err());
        let mut blob = Adam::new(0.1).save();
        blob.push(0);
        assert!(
            Adam::load(&blob).is_err(),
            "trailing bytes must be rejected"
        );
    }

    #[test]
    #[should_panic(expected = "parameter shape changed")]
    fn adam_rejects_a_reshaped_param() {
        let mut opt = Adam::new(0.1);
        let mut a = Param::new(Matrix::zeros(2, 2));
        opt.step(&mut [&mut a]);
        let mut wider = Param::new(Matrix::zeros(2, 3));
        opt.step(&mut [&mut wider]);
    }

    #[test]
    #[should_panic(expected = "parameter set changed")]
    fn adam_rejects_changing_param_count() {
        let mut opt = Adam::new(0.1);
        let mut a = Param::new(Matrix::zeros(1, 1));
        let mut b = Param::new(Matrix::zeros(1, 1));
        opt.step(&mut [&mut a]);
        opt.step(&mut [&mut a, &mut b]);
    }
}
