import machine

machine.use_source()
