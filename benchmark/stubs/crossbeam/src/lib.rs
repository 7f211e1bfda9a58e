//! Offline stand-in for `crossbeam`: only `thread::scope`, which
//! `otm-trace`'s DUMPI directory parser uses, over `std::thread::scope`.

pub mod thread {
    use std::any::Any;

    pub struct Scope<'scope, 'env: 'scope>(&'scope std::thread::Scope<'scope, 'env>);

    pub struct ScopedJoinHandle<'scope, T>(std::thread::ScopedJoinHandle<'scope, T>);

    impl<T> ScopedJoinHandle<'_, T> {
        pub fn join(self) -> Result<T, Box<dyn Any + Send + 'static>> {
            self.0.join()
        }
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
        where
            F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let inner = self.0;
            ScopedJoinHandle(inner.spawn(move || f(&Scope(inner))))
        }
    }

    /// Runs `f` with a scope whose threads are joined before returning.
    /// A panicking child propagates out of `std::thread::scope`, so the
    /// `Err` arm crossbeam uses to report it is never produced here.
    pub fn scope<'env, F, R>(f: F) -> Result<R, Box<dyn Any + Send + 'static>>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        Ok(std::thread::scope(|s| f(&Scope(s))))
    }
}
