foo : nop
