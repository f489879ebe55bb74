//! Trace events name the tenant that was active when they happened, even
//! when tracing is switched on after the tenant switch: the syscall spans,
//! the cache marks and the device command with its phase train.

use sleds_devices::DiskDevice;
use sleds_fs::trace::Layer;
use sleds_fs::{Kernel, OpenFlags};
use sleds_sim_core::PAGE_SIZE;

#[test]
fn tracing_enabled_under_a_tenant_stamps_that_tenant() {
    let mut k = Kernel::table2();
    k.mkdir("/d").unwrap();
    k.mount_disk("/d", DiskDevice::table2_disk("hda")).unwrap();
    k.install_file("/d/f", &[7u8; PAGE_SIZE as usize]).unwrap();
    k.drop_caches().unwrap();
    let tenant = k.tenant_register("reader");
    k.tenant_switch(tenant).unwrap();
    k.enable_tracing();

    let fd = k.open("/d/f", OpenFlags::RDONLY).unwrap();
    assert_eq!(
        k.read(fd, PAGE_SIZE as usize).unwrap().len(),
        PAGE_SIZE as usize
    );
    k.close(fd).unwrap();

    let events = k.trace_events();
    for layer in [Layer::Syscall, Layer::Cache, Layer::Device] {
        assert!(
            events.iter().any(|e| e.layer == layer),
            "no {layer:?} event"
        );
    }
    for e in &events {
        assert_eq!(e.tenant, tenant.0, "{e:?}");
    }

    // Off and on again, still under the same tenant.
    k.disable_tracing();
    k.enable_tracing_with_capacity(64);
    let fd = k.open("/d/f", OpenFlags::RDONLY).unwrap();
    k.read(fd, PAGE_SIZE as usize).unwrap();
    k.close(fd).unwrap();
    let events = k.trace_events();
    assert!(!events.is_empty());
    assert!(events.iter().all(|e| e.tenant == tenant.0));
}
